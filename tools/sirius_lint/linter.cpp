#include "linter.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <regex>
#include <sstream>
#include <utility>

namespace sirius::lint {
namespace {

// ---- rule table ------------------------------------------------------------

// A rule is a regex over the scrubbed code view plus a scope predicate over
// FileKind. Regexes are compiled once (static locals) — the tree has a few
// hundred small files, so std::regex is comfortably fast here.
struct Rule {
  const char* id;
  const char* summary;
  const char* pattern;
  bool (*applies)(const FileKind&);
  const char* message;
};

bool in_src(const FileKind& k) { return k.is_src; }
bool in_header(const FileKind& k) { return k.is_header; }
bool in_unit_guarded_header(const FileKind& k) {
  return k.is_header && k.is_src && !k.unit_exempt;
}

// Shared by the rule table and the wallclock-exempt carve-out below, which
// needs to examine individual matches rather than a per-line boolean.
constexpr const char* kWallclockPattern =
    R"(\btime\s*\(\s*(nullptr|NULL|0)\s*\)|\b(gettimeofday|clock_gettime|localtime|gmtime)\s*\(|::\s*now\s*\(\s*\))";

// `\bprintf` cannot match inside snprintf/fprintf (no word boundary between
// two word characters), so the checked formatters stay usable in src/.
constexpr Rule kRules[] = {
    {"no-rand",
     "unseeded/global randomness is banned in src/; use common/rng",
     R"(\b(rand|srand|rand_r|drand48|lrand48|mrand48)\s*\(|\brandom_device\b)",
     &in_src,
     "global RNG primitive in library code: route randomness through "
     "sirius::Rng so runs stay reproducible"},
    {"no-wallclock",
     "wall-clock reads are banned in src/; use simulated time "
     "(src/telemetry/profile.* may read steady_clock)",
     kWallclockPattern,
     &in_src,
     "wall-clock read in library code: simulator behaviour must depend only "
     "on simulated Time"},
    {"no-stdio",
     "stdout writes are banned in src/ library code",
     R"(\bstd\s*::\s*cout\b|\bprintf\s*\(|\bfprintf\s*\(\s*stdout\b|\bputs\s*\(|\bputchar\s*\()",
     &in_src,
     "stdout write in library code: return data or use the caller's sink "
     "(fprintf(stderr, ...) is allowed for diagnostics)"},
    {"no-using-namespace",
     "`using namespace` is banned at header scope",
     R"(\busing\s+namespace\b)",
     &in_header,
     "`using namespace` in a header leaks into every includer"},
    {"unit-escape",
     "raw-unit accessors (.picoseconds()/.in_bytes()/...) are banned in "
     "headers outside src/common and src/check",
     R"(\.\s*(picoseconds|to_ns|to_us|to_ms|to_sec|in_bytes|in_bits|in_kb|bits_per_sec|in_gbps|in_tbps)\s*\(\s*\))",
     &in_unit_guarded_header,
     "raw-unit escape in a public header: keep Time/DataSize/DataRate "
     "strongly typed across module boundaries (or move the arithmetic into "
     "a .cpp)"},
    // raw-unit-param is handled separately (it needs the previous line to
    // detect parameters continued across a line break); the entry here only
    // feeds --list-rules and the scope predicate.
    {"raw-unit-param",
     "raw double/int64 time/size/rate parameters are banned in headers "
     "outside src/common and src/check",
     nullptr,
     &in_unit_guarded_header,
     "raw-unit parameter in a public header: take Time/DataSize/DataRate "
     "instead of a suffixed scalar"},
    {"pragma-once",
     "every header must contain #pragma once",
     nullptr,
     &in_header,
     "header has no #pragma once"},
};

// Unit-suffixed scalar parameter: `double foo_ps`, `std::int64_t bar_bytes`.
// Matched when introduced by `(` or `,` on the same line, or at the start of
// a line whose previous code line ended the same way (wrapped param lists).
constexpr const char* kUnitParamTypes =
    R"((?:const\s+)?(?:double|float|std::int64_t|int64_t|std::uint64_t|uint64_t|long\s+long))";
constexpr const char* kUnitParamSuffix =
    R"(\s+\w+_(ps|ns|us|ms|sec|bytes|bits|bps|gbps|tbps)\b)";

const std::regex& unit_param_same_line() {
  static const std::regex re(std::string(R"([(,]\s*)") + kUnitParamTypes +
                             kUnitParamSuffix);
  return re;
}
const std::regex& unit_param_wrapped() {
  static const std::regex re(std::string(R"(^\s*)") + kUnitParamTypes +
                             kUnitParamSuffix);
  return re;
}
const std::regex& pragma_once_re() {
  static const std::regex re(R"(^\s*#\s*pragma\s+once\b)");
  return re;
}

// Rule regexes, compiled once, indexed like kRules (pattern-less rules get
// a never-matching placeholder).
const std::vector<std::regex>& compiled_rules() {
  static const std::vector<std::regex> v = [] {
    std::vector<std::regex> out;
    for (const Rule& r : kRules) out.emplace_back(r.pattern ? r.pattern : "$^");
    return out;
  }();
  return v;
}

// Pass-2 rules live in index.cpp (they need the merged cross-file index);
// the entries here feed --list-rules, the docs, and the zero-filled
// rule_counts block in the JSON report.
constexpr RuleInfo kPass2Rules[] = {
    {"no-mutable-global-state",
     "mutable namespace-scope / function-static state is banned in src/ "
     "(it would leak between the sims one process runs)"},
    {"no-unordered-sim-state",
     "std::unordered_* fields are banned in sim-reachable types (iteration "
     "order would break the deterministic merge)"},
    {"no-pointer-key-order",
     "ordered containers / comparators keyed on pointer values are banned "
     "in src/ (addresses vary run to run)"},
    {"allowlist-sync",
     "every sirius-lint: allow(...) site must be recorded in "
     "tools/sirius_lint/ALLOWLIST.md, and vice versa"},
    {"layer-order",
     "quoted includes in src/ must follow the declared layer matrix "
     "(common -> check -> leaf modules -> node/sched/ctrl -> sim -> esn -> "
     "core); upward includes are banned"},
    {"include-cycle",
     "the quoted-include graph of the scanned set must be acyclic"},
    {"duplicate-include",
     "a file must not include the same quoted target twice"},
    {"dead-public-symbol",
     "(--dead-symbols) symbols declared in src/ headers with no call site "
     "in the scanned tree are reported for review"},
};

}  // namespace

// ---- suppression comments --------------------------------------------------

bool comment_allows(const std::string& comment, const std::string& rule) {
  static const std::regex re(R"(sirius-lint:\s*allow\(([^)]*)\))");
  auto begin = std::sregex_iterator(comment.begin(), comment.end(), re);
  for (auto it = begin; it != std::sregex_iterator(); ++it) {
    std::string list = (*it)[1].str();
    std::string item;
    std::istringstream ss(list);
    while (std::getline(ss, item, ',')) {
      const auto a = item.find_first_not_of(" \t");
      if (a == std::string::npos) continue;
      const auto b = item.find_last_not_of(" \t");
      const std::string name = item.substr(a, b - a + 1);
      if (name == rule || name == "all") return true;
    }
  }
  return false;
}

bool suppressed(const std::vector<std::string>& comments, int line_idx,
                const std::string& rule) {
  if (line_idx < static_cast<int>(comments.size()) &&
      comment_allows(comments[static_cast<std::size_t>(line_idx)], rule)) {
    return true;
  }
  return line_idx > 0 &&
         line_idx - 1 < static_cast<int>(comments.size()) &&
         comment_allows(comments[static_cast<std::size_t>(line_idx - 1)],
                        rule);
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string::size_type pos = 0;
  while (pos <= text.size()) {
    const auto nl = text.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

std::string rtrim(const std::string& s) {
  auto end = s.find_last_not_of(" \t\r");
  return end == std::string::npos ? std::string() : s.substr(0, end + 1);
}

namespace {

// Wallclock-exempt files (src/telemetry/profile.*) may call
// steady_clock::now() and nothing else: walk every wallclock match on the
// line and return true if any match is a non-`::now()` primitive, or a
// `::now()` whose receiver is not steady_clock. std::regex has no
// lookbehind, so the receiver check right-trims the text before the match.
bool wallclock_hit_in_exempt_file(const std::string& ln) {
  static const std::regex re(kWallclockPattern);
  for (auto it = std::sregex_iterator(ln.begin(), ln.end(), re);
       it != std::sregex_iterator(); ++it) {
    const std::string m = it->str();
    if (m.empty() || m[0] != ':') return true;  // time()/gettimeofday/...
    const std::string before =
        rtrim(ln.substr(0, static_cast<std::size_t>(it->position())));
    static constexpr const char* kAllowedClock = "steady_clock";
    const std::size_t n = std::string(kAllowedClock).size();
    if (before.size() < n || before.compare(before.size() - n, n,
                                            kAllowedClock) != 0) {
      return true;  // some other clock's ::now()
    }
  }
  return false;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

// ---- scrub pass ------------------------------------------------------------

std::string scrub(const std::string& text,
                  std::vector<std::string>* comments) {
  enum class St {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kChar,
    kRawString
  };
  std::string out = text;
  if (comments) comments->assign(split_lines(text).size(), "");

  St st = St::kCode;
  std::size_t line = 0;
  std::string raw_delim;  // the )delim" closer for the active raw string
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') ++line;
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   text[i - 1])) &&
                               text[i - 1] != '_'))) {
          // R"delim( ... )delim"
          std::size_t p = i + 2;
          while (p < text.size() && text[p] != '(') ++p;
          raw_delim = ")" + text.substr(i + 2, p - (i + 2)) + "\"";
          for (std::size_t j = i; j <= p && j < text.size(); ++j) out[j] = ' ';
          i = p;
          st = St::kRawString;
        } else if (c == '"') {
          st = St::kString;
          out[i] = ' ';
        } else if (c == '\'' &&
                   // Skip digit separators (1'000'000): a quote directly
                   // between alnum characters is not a char literal.
                   !(i > 0 &&
                     std::isalnum(static_cast<unsigned char>(text[i - 1])) &&
                     std::isalnum(static_cast<unsigned char>(next)))) {
          st = St::kChar;
          out[i] = ' ';
        }
        break;
      case St::kLineComment:
        if (c == '\n') {
          st = St::kCode;
        } else {
          if (comments && line < comments->size()) {
            (*comments)[line] += c;
          }
          out[i] = ' ';
        }
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          if (comments && line < comments->size()) {
            (*comments)[line] += c;
          }
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && next != '\0' && next != '\n') {
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          out[i] = ' ';
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRawString:
        if (c == raw_delim[0] &&
            text.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = i; j < i + raw_delim.size(); ++j) out[j] = ' ';
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

// ---- classification --------------------------------------------------------

FileKind classify(const std::filesystem::path& path) {
  FileKind k;
  const std::string ext = path.extension().string();
  k.is_header = ext == ".hpp" || ext == ".h" || ext == ".hh";
  const auto norm = path.lexically_normal();
  auto it = norm.begin();
  for (; it != norm.end(); ++it) {
    if (*it == "src") {
      k.is_src = true;
      auto next = std::next(it);
      if (next != norm.end() && (*next == "common" || *next == "check")) {
        k.unit_exempt = true;
      }
      if (next != norm.end() && *next == "telemetry") {
        auto file = std::next(next);
        if (file != norm.end() && std::next(file) == norm.end() &&
            file->stem() == "profile") {
          k.wallclock_exempt = true;
        }
      }
      break;
    }
  }
  return k;
}

const std::vector<RuleInfo>& rules() {
  static const std::vector<RuleInfo> infos = [] {
    std::vector<RuleInfo> v;
    for (const Rule& r : kRules) v.push_back({r.id, r.summary});
    for (const RuleInfo& r : kPass2Rules) v.push_back(r);
    return v;
  }();
  return infos;
}

// ---- rule engine -----------------------------------------------------------

std::vector<Violation> lint_text(const std::string& text,
                                 const std::string& reported_path,
                                 const FileKind& kind) {
  std::vector<std::string> comments;
  const std::string code = scrub(text, &comments);
  const std::vector<std::string> lines = split_lines(code);

  std::vector<Violation> out;
  auto report = [&](int line_idx, const char* id, const char* message) {
    if (suppressed(comments, line_idx, id)) return;
    out.push_back(Violation{reported_path, line_idx + 1, id, message});
  };

  bool saw_pragma_once = false;
  std::string prev_code_tail;  // last non-blank scrubbed line, right-trimmed
  for (std::size_t li = 0; li < lines.size(); ++li) {
    const std::string& ln = lines[li];
    if (std::regex_search(ln, pragma_once_re())) saw_pragma_once = true;

    for (const Rule& r : kRules) {
      if (!r.pattern || !r.applies(kind)) continue;
      const std::size_t ri = static_cast<std::size_t>(&r - kRules);
      if (std::regex_search(ln, compiled_rules()[ri])) {
        if (kind.wallclock_exempt && std::strcmp(r.id, "no-wallclock") == 0 &&
            !wallclock_hit_in_exempt_file(ln)) {
          continue;  // steady_clock::now() in the profiler: allowed
        }
        report(static_cast<int>(li), r.id, r.message);
      }
    }

    if (in_unit_guarded_header(kind)) {
      const bool wrapped = (!prev_code_tail.empty() &&
                            (prev_code_tail.back() == '(' ||
                             prev_code_tail.back() == ',')) &&
                           std::regex_search(ln, unit_param_wrapped());
      if (std::regex_search(ln, unit_param_same_line()) || wrapped) {
        report(static_cast<int>(li), "raw-unit-param",
               "raw-unit parameter in a public header: take "
               "Time/DataSize/DataRate instead of a suffixed scalar");
      }
    }

    const std::string trimmed = rtrim(ln);
    if (!trimmed.empty() &&
        trimmed.find_first_not_of(" \t") != std::string::npos) {
      prev_code_tail = trimmed;
    }
  }

  if (kind.is_header && !saw_pragma_once) {
    // File-level rule: the suppression comment may sit on line 1.
    if (!suppressed(comments, 0, "pragma-once")) {
      out.push_back(
          Violation{reported_path, 1, "pragma-once",
                    "header has no #pragma once"});
    }
  }
  return out;
}

std::vector<Violation> lint_file(const std::filesystem::path& path,
                                 const FileKind& kind) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Violation{path.string(), 0, "io-error", "cannot read file"}};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return lint_text(ss.str(), path.string(), kind);
}

std::string to_json(const std::vector<Violation>& vs, int files_scanned) {
  // Per-rule counts: every known rule id (zero-filled, table order), then
  // any rule id present in the violations but absent from the table (e.g.
  // "io-error"), in first-seen order.
  std::vector<std::pair<std::string, int>> counts;
  for (const RuleInfo& r : rules()) counts.emplace_back(r.id, 0);
  for (const Violation& v : vs) {
    auto it = std::find_if(counts.begin(), counts.end(),
                           [&](const auto& c) { return c.first == v.rule; });
    if (it == counts.end()) {
      counts.emplace_back(v.rule, 1);
    } else {
      ++it->second;
    }
  }

  std::ostringstream os;
  os << "{\n  \"files_scanned\": " << files_scanned
     << ",\n  \"violation_count\": " << vs.size() << ",\n  \"rule_counts\": {";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    os << (i ? "," : "") << "\n    \"" << json_escape(counts[i].first)
       << "\": " << counts[i].second;
  }
  os << "\n  },\n  \"violations\": [";
  for (std::size_t i = 0; i < vs.size(); ++i) {
    os << (i ? "," : "") << "\n    {\"file\": \"" << json_escape(vs[i].file)
       << "\", \"line\": " << vs[i].line << ", \"rule\": \""
       << json_escape(vs[i].rule) << "\", \"message\": \""
       << json_escape(vs[i].message) << "\"}";
  }
  os << (vs.empty() ? "" : "\n  ") << "]\n}\n";
  return os.str();
}

}  // namespace sirius::lint
