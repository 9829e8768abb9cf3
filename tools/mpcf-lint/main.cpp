// mpcf-lint CLI: walks the given files/directories (recursing into .h/.cpp)
// and prints one `file:line: [rule] message` diagnostic per finding.
// Exit code 0 = clean tree, 1 = diagnostics, 2 = usage/IO error.
//
// A file found under a directory argument is named by its path relative to
// that argument's parent (`mpcf-lint /x/repo/src` lints `src/io/x.cpp`); the
// scope rules, the diagnostics and the baseline all use that name, so they
// do not depend on where the checkout lives. File arguments keep their own
// spelling.
//
// Modes:
//   --format=text|json     human lines (default) or a machine report
//   --baseline FILE        tolerate findings matching (file, rule) entries
//   --write-baseline FILE  write the baseline tolerating today's findings
//   --fix-suppressions     per finding, print the allow-comment to paste
//   --warn                 report but exit 0 (land a new rule warn-first)
//   --list-rules           print rule names
//
// This tool lives outside the linted scope (src/, bench/, tests/), so it may
// use plain streams for its own file reading.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint.h"

namespace fs = std::filesystem;

namespace {

/// The path the rules see for a file found under the directory argument
/// `root`: relative to root's parent, so scope rules match the tree's own
/// layout (`src/`, `tests/`) wherever the checkout lives — under
/// `/x/final_src/`, `tests/t.cpp` is not production code.
std::string scope_path(const fs::path& file, const fs::path& root) {
  fs::path base = fs::absolute(root).lexically_normal();
  if (!base.has_filename()) base = base.parent_path();  // "src/" names "src"
  return fs::absolute(file).lexically_normal().lexically_relative(base.parent_path())
      .generic_string();
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".hpp";
}

bool read_file(const fs::path& p, std::string* out) {
  std::ifstream f(p, std::ios::binary);
  if (!f) return false;
  std::ostringstream ss;
  ss << f.rdbuf();
  *out = ss.str();
  return true;
}

int usage() {
  std::fprintf(stderr,
               "usage: mpcf-lint [--list-rules] [--format=text|json] "
               "[--baseline FILE] [--write-baseline FILE] [--fix-suppressions] "
               "[--warn] <paths...>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // (file on disk, path the rules and diagnostics use)
  std::vector<std::pair<fs::path, std::string>> files;
  bool list_rules = false;
  bool json = false;
  bool fix_suppressions = false;
  bool warn_only = false;
  std::string baseline_path, write_baseline_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
      continue;
    }
    if (arg == "--format=text" || arg == "--format=json") {
      json = arg == "--format=json";
      continue;
    }
    if (arg == "--format") {
      if (++i >= argc) return usage();
      const std::string v = argv[i];
      if (v != "text" && v != "json") return usage();
      json = v == "json";
      continue;
    }
    if (arg == "--baseline") {
      if (++i >= argc) return usage();
      baseline_path = argv[i];
      continue;
    }
    if (arg == "--write-baseline") {
      if (++i >= argc) return usage();
      write_baseline_path = argv[i];
      continue;
    }
    if (arg == "--fix-suppressions") {
      fix_suppressions = true;
      continue;
    }
    if (arg == "--warn") {
      warn_only = true;
      continue;
    }
    if (arg.starts_with("--")) return usage();
    std::error_code ec;
    if (fs::is_directory(arg, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(arg)) {
        if (e.is_regular_file() && lintable(e.path()))
          files.emplace_back(e.path(), scope_path(e.path(), arg));
      }
    } else if (fs::is_regular_file(arg, ec)) {
      // Lint against a generic (forward-slash) spelling so scope rules
      // behave identically regardless of how the path was passed.
      files.emplace_back(arg, fs::path(arg).generic_string());
    } else {
      std::fprintf(stderr, "mpcf-lint: no such file or directory: %s\n", arg.c_str());
      return 2;
    }
  }

  if (list_rules) {
    for (const auto& r : mpcf::lint::rule_names()) std::printf("%s\n", r.c_str());
    if (files.empty()) return 0;
  }
  if (files.empty()) return usage();
  std::sort(files.begin(), files.end());

  std::vector<mpcf::lint::BaselineEntry> baseline;
  if (!baseline_path.empty()) {
    std::string content;
    if (!read_file(baseline_path, &content)) {
      std::fprintf(stderr, "mpcf-lint: cannot read baseline %s\n",
                   baseline_path.c_str());
      return 2;
    }
    baseline = mpcf::lint::parse_baseline(content);
  }

  std::vector<mpcf::lint::Diagnostic> findings;
  std::size_t baselined = 0;
  for (const auto& [f, scope] : files) {
    std::string content;
    if (!read_file(f, &content)) {
      std::fprintf(stderr, "mpcf-lint: cannot read %s\n", f.c_str());
      return 2;
    }
    for (auto& d : mpcf::lint::lint_file(scope, content)) {
      if (mpcf::lint::baseline_matches(baseline, d)) {
        ++baselined;
        continue;
      }
      findings.push_back(std::move(d));
    }
  }

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary | std::ios::trunc);
    out << mpcf::lint::render_baseline(findings);
    if (!out.flush()) {
      std::fprintf(stderr, "mpcf-lint: cannot write baseline %s\n",
                   write_baseline_path.c_str());
      return 2;
    }
    std::printf("mpcf-lint: wrote baseline of %zu finding%s to %s\n", findings.size(),
                findings.size() == 1 ? "" : "s", write_baseline_path.c_str());
    return 0;
  }

  if (json) {
    std::fputs(mpcf::lint::render_json(findings).c_str(), stdout);
  } else {
    for (const auto& d : findings) {
      std::printf("%s:%d: [%s] %s\n", d.file.c_str(), d.line, d.rule.c_str(),
                  d.message.c_str());
      if (fix_suppressions) {
        std::printf("    paste on the line above (and justify):\n    %s\n",
                    mpcf::lint::suppression_hint(d).c_str());
      }
    }
    if (!findings.empty() || baselined > 0) {
      std::printf("mpcf-lint: %zu diagnostic%s in %zu file%s", findings.size(),
                  findings.size() == 1 ? "" : "s", files.size(),
                  files.size() == 1 ? "" : "s");
      if (baselined > 0) std::printf(" (+%zu baselined)", baselined);
      std::printf("\n");
    }
  }
  if (findings.empty()) return 0;
  return warn_only ? 0 : 1;
}
