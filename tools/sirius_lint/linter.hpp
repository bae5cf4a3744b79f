// sirius-lint: a domain linter for the Sirius simulator tree.
//
// The simulator's figures are only trustworthy while three contracts hold
// everywhere in src/ (docs/ARCHITECTURE.md, "Static analysis & determinism
// contract"):
//
//   * determinism — all randomness flows through common/rng and all time
//     through the simulated clock; a stray rand() or wall-clock read makes
//     runs irreproducible,
//   * unit safety — Time/DataSize/DataRate stay strongly typed across
//     module boundaries; raw picosecond/byte integers escape only inside
//     src/common and src/check (the unit-defining zone) or behind an
//     explicit suppression,
//   * library hygiene — library code never writes to stdout, every header
//     is self-guarded with #pragma once and never opens a namespace.
//
// This linter enforces those contracts at the token/line level: it scrubs
// comments and string/char literals from each file (so a banned identifier
// in a doc comment or a log message never trips a rule), then runs regex
// rules over the scrubbed "code view". It deliberately has no libclang
// dependency so it builds everywhere the simulator builds and runs in
// milliseconds as a ctest.
//
// Suppression: append `// sirius-lint: allow(<rule>)` (comma-separated list
// or `all`) to the offending line, or place it alone on the line above.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

namespace sirius::lint {

/// One rule violation at a specific source location.
struct Violation {
  std::string file;   ///< path as reported (relative to the scan root)
  int line = 0;       ///< 1-based
  std::string rule;   ///< rule id, e.g. "no-rand"
  std::string message;
};

/// How a file participates in rule selection.
struct FileKind {
  bool is_header = false;   ///< .hpp/.h/.hh: header-only rules apply
  bool is_src = false;      ///< library code: determinism + stdio rules apply
  bool unit_exempt = false; ///< src/common, src/check: may touch raw units
  /// src/telemetry/profile.* — the wall-clock profiler. `no-wallclock`
  /// still applies but permits `steady_clock::now()` — and only that —
  /// so the monotonic profiling clock can live there while calendar-time
  /// reads (time(nullptr), gettimeofday, system_clock::now) stay banned.
  bool wallclock_exempt = false;
};

/// Static description of one lint rule (for --list-rules and the docs).
struct RuleInfo {
  const char* id;
  const char* summary;
};

/// All rules the linter knows, in reporting order.
const std::vector<RuleInfo>& rules();

/// Classifies `path` the way the CLI does: a file is library code when a
/// `src` component appears in its path, unit-exempt when that `src` is
/// directly followed by `common` or `check`, and wallclock-exempt when it
/// is `profile.*` inside a `telemetry` directory under that `src`.
FileKind classify(const std::filesystem::path& path);

/// The comment/string scrub pass, exposed for tests: returns `text` with
/// every comment and string/char-literal body replaced by spaces (newlines
/// kept, so line/column positions survive), and appends the comment text of
/// line i (0-based) to (*comments)[i] when `comments` is non-null.
std::string scrub(const std::string& text,
                  std::vector<std::string>* comments = nullptr);

/// Lints one file's contents. `reported_path` is what appears in
/// violations; `kind` selects the applicable rules.
std::vector<Violation> lint_text(const std::string& text,
                                 const std::string& reported_path,
                                 const FileKind& kind);

/// Reads and lints one file on disk (classification from `classify` unless
/// overridden by the caller).
std::vector<Violation> lint_file(const std::filesystem::path& path,
                                 const FileKind& kind);

/// Serialises violations as a machine-readable JSON report. The report
/// carries a `rule_counts` block: every known rule id mapped to its
/// violation count (zero included), so CI logs show which rule regressed
/// at a glance.
std::string to_json(const std::vector<Violation>& vs, int files_scanned);

// ---- shared with the pass-1 indexer (index.cpp) ----------------------------
// Not part of the public API; exposed so the structural scanner applies the
// exact same suppression semantics as the line rules.

/// Splits on '\n' (the final fragment is kept even when unterminated).
std::vector<std::string> split_lines(const std::string& text);

/// Right-trims spaces/tabs/CR.
std::string rtrim(const std::string& s);

/// True when `comment` carries `sirius-lint: allow(...)` naming `rule` (or
/// `all`). The list is comma-separated; whitespace is ignored.
bool comment_allows(const std::string& comment, const std::string& rule);

/// True when the violation on 0-based line `line_idx` is suppressed by an
/// allow comment on the same line or the line above.
bool suppressed(const std::vector<std::string>& comments, int line_idx,
                const std::string& rule);

}  // namespace sirius::lint
