// mpcf-lint: repo-specific correctness lint for the CUBISM-MPCF tree.
//
// A deliberately small token/AST-lite engine (no libclang), organized as rule
// packs over a shared substrate (rules/engine.h): each file is scanned once
// into per-line code text (comments, string and character literals blanked so
// their contents can never match a rule), per-line comment text (where
// suppression annotations live), a lexed token stream, and a per-file symbol
// table (which names are std::atomic, which locals are lambdas/thread pools).
// Registered rules run over that. The rules encode invariants that keep the
// paper claims true and that no compiler flag enforces:
//
// core pack (rules/core_rules.cpp):
//   raw-io           file writes outside src/io must go through io::SafeFile
//   openmp-in-src    no OpenMP in src/ outside common/chunk_loop.cpp, the
//                    file whose thread_count() reads the thread budget
//   kernel-alloc     no allocation/container growth inside kernel loops
//   hot-assert       no assert() in src/ — use MPCF_CHECK (common/check.h)
//   reinterpret-cast reinterpret_cast only in the SIMD/io whitelist
//   scalar-tail      width-strided kernel loops need a scalar tail loop
//   header-guard     headers start with #pragma once
//   include-hygiene  no ../ or ./ relative includes, no duplicate includes
//
// concurrency & resource pack (rules/concurrency_rules.cpp):
//   atomic-explicit-order          atomic ops in src/ name their memory_order;
//                                  relaxed needs an adjacent // order: comment
//   blocking-under-lock            no blocking call (recv/futex/cv-wait/fsync/
//                                  waitpid/SafeFile write/join) while a
//                                  lock_guard-family local is live
//   unchecked-syscall              raw fork/waitpid/open/close/write/fsync/
//                                  rename/kill results in src/serve + src/io
//                                  are checked or (void)'d with a comment
//   thread-entry-exception-barrier std::thread / pool entry lambdas carry a
//                                  try/catch storing into an exception_ptr
//
// engine-level:
//   bad-suppression  allow() annotations must name a rule + justification
//
// Any diagnostic is suppressible at its line (same line, or a comment block
// ending on the line above — justifications may wrap over several lines)
// with  // mpcf-lint: allow(<rule>): <justification>  or for a whole file
// with  // mpcf-lint: allow-file(<rule>): <justification> . The
// justification is mandatory: an allow without one is itself a diagnostic.
// Findings can also be tolerated tree-wide via a committed baseline file
// (tools/mpcf-lint/baseline.json, matched by (file, rule)) so a new rule can
// land warn-first and be tightened to strict without one mega-commit.
#pragma once

#include <string>
#include <vector>

namespace mpcf::lint {

struct Diagnostic {
  std::string file;
  int line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// All rule names the engine knows (valid targets for allow()).
[[nodiscard]] const std::vector<std::string>& rule_names();

/// Lints one file image. `path` drives the scope decisions (a file under
/// src/io/ is exempt from raw-io, src/simd// and src/io/ from
/// reinterpret-cast, only src/kernels/ + src/grid/lab.h are kernel scope,
/// the concurrency pack applies under src/), so tests can exercise scoping
/// with synthetic paths.
[[nodiscard]] std::vector<Diagnostic> lint_file(const std::string& path,
                                                const std::string& content);

/// Machine-readable report: {"version":1,"count":N,"diagnostics":[...]}.
[[nodiscard]] std::string render_json(const std::vector<Diagnostic>& diags);

/// The exact allow-comment to paste for a finding (--fix-suppressions).
[[nodiscard]] std::string suppression_hint(const Diagnostic& d);

// --- baseline --------------------------------------------------------------
// A baseline entry tolerates every finding of `rule` in `file`. The file
// format is the natural JSON: {"entries":[{"file":"...","rule":"..."},...]}.

struct BaselineEntry {
  std::string file;
  std::string rule;
};

/// Parses baseline JSON (tolerant minimal scanner; unknown keys ignored).
[[nodiscard]] std::vector<BaselineEntry> parse_baseline(const std::string& json);

/// Renders the baseline that would tolerate exactly `diags` (deduplicated).
[[nodiscard]] std::string render_baseline(const std::vector<Diagnostic>& diags);

/// True if the baseline tolerates this diagnostic.
[[nodiscard]] bool baseline_matches(const std::vector<BaselineEntry>& baseline,
                                    const Diagnostic& d);

}  // namespace mpcf::lint
