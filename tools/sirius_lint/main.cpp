// CLI driver for sirius-lint. See linter.hpp for the line rules, index.hpp
// for the two-pass cross-file analysis, and docs/STATIC_ANALYSIS.md for
// the full rule table and rationale.
//
// Usage:
//   sirius_lint [options] <file-or-dir>...
//
// Directories are walked recursively for C++ sources (.hpp/.h/.hh and
// .cpp/.cc/.cxx); files given explicitly are always scanned, whatever their
// extension (that is how the fixture tests feed it .cpp.in files).
//
// Every scanned file goes through both passes: pass 1 runs the line rules
// and extracts the file's symbol index; pass 2 evaluates the cross-file
// rules over the merged index of everything scanned.
//
// Options:
//   --json <path>       also write a machine-readable JSON report (includes
//                       a per-rule violation-count block)
//   --treat-as-src      classify every explicit file as src/ library code
//   --as-header         classify every explicit file as a header
//   --classify-as <p>   classify the next explicit file as if it lived at
//                       path <p>; repeatable — the i-th occurrence applies
//                       to the i-th explicit file, and the last one sticks
//                       for any remaining files (fixtures use this to test
//                       path-scoped rules like no-unordered-sim-state)
//   --allowlist <path>  cross-check every `sirius-lint: allow(...)` site
//                       against this ALLOWLIST.md (rule allowlist-sync)
//   --list-rules        print the rule table and exit
//   --quiet             suppress per-violation lines (summary only)
//
// Exit status: 0 clean, 1 violations found, 2 usage or I/O error.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "index.hpp"
#include "linter.hpp"

namespace fs = std::filesystem;
using sirius::lint::FileKind;
using sirius::lint::Violation;

namespace {

bool has_cxx_extension(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".h" || e == ".hh" || e == ".cpp" ||
         e == ".cc" || e == ".cxx";
}

struct WorkItem {
  fs::path path;
  std::string effective;  // classification path (== path unless overridden)
  FileKind kind;
};

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string allowlist_path;
  std::vector<std::string> classify_as;  // positional, per explicit file
  bool treat_as_src = false;
  bool as_header = false;
  bool quiet = false;
  std::vector<fs::path> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      if (++i >= argc) {
        std::cerr << "sirius_lint: --json needs a path\n";
        return 2;
      }
      json_path = argv[i];
    } else if (arg == "--classify-as") {
      if (++i >= argc) {
        std::cerr << "sirius_lint: --classify-as needs a path\n";
        return 2;
      }
      classify_as.emplace_back(argv[i]);
    } else if (arg == "--allowlist") {
      if (++i >= argc) {
        std::cerr << "sirius_lint: --allowlist needs a path\n";
        return 2;
      }
      allowlist_path = argv[i];
    } else if (arg == "--treat-as-src") {
      treat_as_src = true;
    } else if (arg == "--as-header") {
      as_header = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--list-rules") {
      for (const auto& r : sirius::lint::rules()) {
        std::cout << r.id << ": " << r.summary << "\n";
      }
      return 0;
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: sirius_lint [--json <path>] [--treat-as-src] "
                   "[--as-header] [--classify-as <path>]... "
                   "[--allowlist <path>] [--quiet] "
                   "[--list-rules] <path>...\n";
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "sirius_lint: unknown option " << arg << "\n";
      return 2;
    } else {
      roots.emplace_back(arg);
    }
  }
  if (roots.empty()) {
    std::cerr << "sirius_lint: no paths given (try --help)\n";
    return 2;
  }
  if (!allowlist_path.empty() && !fs::exists(allowlist_path)) {
    std::cerr << "sirius_lint: no such allowlist: " << allowlist_path << "\n";
    return 2;
  }

  // Collect work items. Explicit files honour the override flags; walked
  // files are classified purely by path.
  std::vector<WorkItem> files;
  std::size_t explicit_seen = 0;
  for (const fs::path& root : roots) {
    std::error_code ec;
    if (fs::is_directory(root, ec)) {
      for (fs::recursive_directory_iterator it(root, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (it->is_regular_file(ec) && has_cxx_extension(it->path())) {
          files.push_back(WorkItem{it->path(), it->path().string(),
                                   sirius::lint::classify(it->path())});
        }
      }
      if (ec) {
        std::cerr << "sirius_lint: error walking " << root << ": "
                  << ec.message() << "\n";
        return 2;
      }
    } else if (fs::exists(root, ec)) {
      std::string effective = root.string();
      if (!classify_as.empty()) {
        effective = explicit_seen < classify_as.size()
                        ? classify_as[explicit_seen]
                        : classify_as.back();
      }
      ++explicit_seen;
      FileKind kind = sirius::lint::classify(fs::path(effective));
      if (treat_as_src) kind.is_src = true;
      if (as_header) kind.is_header = true;
      files.push_back(WorkItem{root, effective, kind});
    } else {
      std::cerr << "sirius_lint: no such path: " << root << "\n";
      return 2;
    }
  }

  // Stable order, so reports (and the sim-reachability closure's tie-breaks)
  // never depend on directory iteration order.
  std::sort(files.begin(), files.end(),
            [](const WorkItem& a, const WorkItem& b) {
              return a.path.string() < b.path.string();
            });

  // Pass 1: per-file line rules + symbol extraction.
  std::vector<Violation> all;
  std::vector<sirius::lint::FileIndex> index;
  bool io_error = false;
  for (const WorkItem& item : files) {
    std::ifstream in(item.path, std::ios::binary);
    if (!in) {
      std::cerr << "sirius_lint: cannot read " << item.path << "\n";
      io_error = true;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    auto vs = sirius::lint::lint_text(text, item.path.string(), item.kind);
    all.insert(all.end(), vs.begin(), vs.end());
    index.push_back(sirius::lint::index_text(text, item.path.string(),
                                             item.effective, item.kind));
  }

  // Pass 2: cross-file rules over the merged index.
  auto vs = sirius::lint::evaluate_tree(index, allowlist_path);
  all.insert(all.end(), vs.begin(), vs.end());

  std::sort(all.begin(), all.end(), [](const Violation& a, const Violation& b) {
    return std::tie(a.file, a.line, a.rule) < std::tie(b.file, b.line, b.rule);
  });

  if (!quiet) {
    for (const Violation& v : all) {
      std::cout << v.file << ":" << v.line << ": error: [" << v.rule << "] "
                << v.message << "\n";
    }
  }
  std::cout << "sirius_lint: " << files.size() << " files, " << all.size()
            << " violation" << (all.size() == 1 ? "" : "s") << "\n";
  if (!all.empty()) {
    std::map<std::string, int> by_rule;
    for (const Violation& v : all) ++by_rule[v.rule];
    for (const auto& [rule, count] : by_rule) {
      std::cout << "  " << rule << ": " << count << "\n";
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path, std::ios::binary);
    if (!out) {
      std::cerr << "sirius_lint: cannot write " << json_path << "\n";
      return 2;
    }
    out << sirius::lint::to_json(all, static_cast<int>(files.size()));
  }
  if (io_error) return 2;
  return all.empty() ? 0 : 1;
}
