// Pass 1 of the two-pass determinism and layering analyzer: per-file symbol
// extraction.
//
// sirius-lint grew beyond line-local regexes when it needed rules about
// *state*, not tokens: mutable globals and container fields whose iteration
// order leaks into results. Those need to know what a file *declares*, and
// one of them (no-unordered-sim-state) needs the include graph of the whole
// scanned set.
//
// So the linter runs in two passes:
//
//   pass 1 (this header): every file is scrubbed (comments/strings blanked)
//     and walked by a lightweight structural scanner that tracks the scope
//     stack (namespace / class / function / block / brace-init) well enough
//     to extract a FileIndex: namespace-scope and function-`static` mutable
//     variables, class fields with their declared type text, `#include`
//     edges, and every `sirius-lint: allow(...)` suppression site.
//
//   pass 2 (evaluate_tree): the merged index is evaluated against the
//     cross-file rules (see docs/STATIC_ANALYSIS.md for the
//     full table) — e.g. sim-reachability is the transitive closure of the
//     include edges from src/sim, and the allowlist cross-check compares
//     suppression sites against tools/sirius_lint/ALLOWLIST.md.
//
// The scanner is deliberately a heuristic, not a C++ parser: it is tuned to
// the tree's enforced style (clang-format, no macros that open scopes) and
// prefers false negatives over false positives. Anything it cannot classify
// is ignored.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "linter.hpp"

namespace sirius::lint {

/// One data member of a class/struct, as declared.
struct Field {
  std::string klass;      ///< enclosing class name ("" if anonymous)
  std::string type_text;  ///< declaration text left of the member name
  std::string name;
  int line = 0;  ///< 1-based
};

/// A mutable namespace-scope variable, static data member, or
/// function-local `static` — state that would leak between the sims one
/// process runs.
struct GlobalVar {
  std::string name;
  int line = 0;                ///< 1-based
  bool function_local = false; ///< `static` inside a function body
  bool is_thread_local = false;
  std::string type_text;       ///< declaration text left of the name
};

/// One `sirius-lint: allow(<rule>)` comment occurrence.
struct AllowSite {
  int line = 0;  ///< 1-based
  std::string rule;
};

/// One quoted `#include "target"` directive.
struct IncludeEdge {
  std::string target;
  int line = 0;  ///< 1-based
};

/// Everything pass 1 knows about one file.
struct FileIndex {
  std::string path;            ///< real path (reported in violations)
  std::string effective_path;  ///< classification path (--classify-as)
  FileKind kind;
  std::vector<IncludeEdge> includes;  ///< quoted #include targets
  std::vector<Field> fields;
  std::vector<GlobalVar> globals;
  std::vector<AllowSite> allows;
  // Per-line text, 0-based.
  std::vector<std::string> lines;     ///< scrubbed code lines
  std::vector<std::string> comments;  ///< comment text per line
};

/// Runs the pass-1 scanner over one file's contents. `reported_path` is what
/// violations cite; `effective_path` is what path-scoped rules see (differs
/// only under --classify-as).
FileIndex index_text(const std::string& text, const std::string& reported_path,
                     const std::string& effective_path, const FileKind& kind);

/// Pass 2: evaluates the cross-file rules over the merged
/// index. `allowlist_path` enables the ALLOWLIST.md sync check when
/// non-empty. Suppression comments are honoured exactly like pass-1 rules.
std::vector<Violation> evaluate_tree(const std::vector<FileIndex>& files,
                                     const std::string& allowlist_path);

}  // namespace sirius::lint
