// Tests of the mpcf-lint engine (tools/mpcf-lint/lint.h): every rule must
// fire on a seeded violation with the right file:line, stay quiet on the
// idiomatic clean counterpart, and honour the allow()/allow-file()
// suppression contract (justification mandatory).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint.h"

namespace {

using mpcf::lint::Diagnostic;
using mpcf::lint::lint_file;

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& ds, const std::string& r) {
  std::vector<Diagnostic> out;
  for (const auto& d : ds)
    if (d.rule == r) out.push_back(d);
  return out;
}

TEST(LintRawIo, FlagsFopenOutsideIoWithLine) {
  const std::string src =
      "#include <cstdio>\n"
      "void f() {\n"
      "  std::FILE* f = std::fopen(\"x\", \"w\");\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/core/foo.cpp", src), "raw-io");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 3);
  EXPECT_EQ(ds[0].file, "src/core/foo.cpp");
}

TEST(LintRawIo, SrcIoIsExempt) {
  const std::string src = "void f() { std::FILE* f = std::fopen(\"x\", \"w\"); }\n";
  EXPECT_TRUE(of_rule(lint_file("src/io/foo.cpp", src), "raw-io").empty());
}

TEST(LintRawIo, OfstreamInTestsFlagged) {
  const std::string src = "void f() { std::ofstream out(\"x\"); }\n";
  EXPECT_EQ(of_rule(lint_file("tests/test_x.cpp", src), "raw-io").size(), 1u);
}

TEST(LintRawIo, StringAndCommentContentsNeverMatch) {
  const std::string src =
      "// fopen in a comment is fine\n"
      "const char* s = \"fopen ofstream\";\n"
      "/* block comment: ifstream */\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/foo.cpp", src), "raw-io").empty());
}

TEST(LintRawIo, IncludeLinesAreIgnored) {
  EXPECT_TRUE(
      of_rule(lint_file("src/core/foo.cpp", "#include <fstream>\n"), "raw-io").empty());
}

TEST(LintOpenmpInSrc, FlagsPragmaIncludeAndCallsInSrcCore) {
  const std::string src =
      "#include <omp.h>\n"
      "void f(int n) {\n"
      "#pragma omp parallel for\n"
      "  for (int i = 0; i < n; ++i) g(omp_get_thread_num());\n"
      "  #  pragma   omp barrier\n"
      "}\n"
      "#include \"omp.h\"\n";
  std::vector<int> lines;
  for (const auto& d : of_rule(lint_file("src/core/foo.cpp", src), "openmp-in-src")) {
    lines.push_back(d.line);
    if (d.line == 4) {
      EXPECT_NE(d.message.find("omp_get_thread_num"), std::string::npos);
    }
  }
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines, (std::vector<int>{1, 3, 4, 5, 7}));
}

TEST(LintOpenmpInSrc, TheFileThatDefinesThreadCountIsExempt) {
  const std::string src =
      "#include <omp.h>\n"
      "int thread_count() { return omp_get_max_threads(); }\n";
  EXPECT_TRUE(of_rule(lint_file("src/common/chunk_loop.cpp", src), "openmp-in-src").empty());
  EXPECT_EQ(of_rule(lint_file("src/common/chunk_loop.h", src), "openmp-in-src").size(), 2u);
}

TEST(LintOpenmpInSrc, TestsAndBenchesAreNotInScope) {
  const std::string src =
      "#include <omp.h>\n"
      "void f() {\n"
      "#pragma omp parallel\n"
      "  omp_set_num_threads(2);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("tests/test_x.cpp", src), "openmp-in-src").empty());
  EXPECT_TRUE(of_rule(lint_file("bench/bench_x.cpp", src), "openmp-in-src").empty());
}

TEST(LintOpenmpInSrc, CommentsStringsAndLookalikesNeverMatch) {
  const std::string src =
      "// #pragma omp parallel, omp_get_max_threads() in a comment is fine\n"
      "const char* s = \"omp_set_num_threads\";\n"
      "#pragma once\n"
      "#pragma ompx\n"
      "int comp_x = 0, omp = 1;\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/foo.cpp", src), "openmp-in-src").empty());
}

TEST(LintHotAssert, FlagsAssertInSrcOnly) {
  const std::string src = "void f(int x) { assert(x > 0); }\n";
  const auto ds = of_rule(lint_file("src/kernels/foo.cpp", src), "hot-assert");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 1);
  // gtest macros and static_assert are not assert()
  EXPECT_TRUE(of_rule(lint_file("src/core/f.cpp",
                                "static_assert(sizeof(int) == 4);\n"),
                      "hot-assert")
                  .empty());
  EXPECT_TRUE(of_rule(lint_file("tests/t.cpp", "void f() { assert(1); }\n"),
                      "hot-assert")
                  .empty());
}

TEST(LintReinterpretCast, WhitelistsSimdAndIo) {
  const std::string src = "auto* p = reinterpret_cast<float*>(q);\n";
  EXPECT_EQ(of_rule(lint_file("src/compression/c.cpp", src), "reinterpret-cast").size(),
            1u);
  EXPECT_TRUE(of_rule(lint_file("src/simd/vec4.h", src), "reinterpret-cast").empty());
  EXPECT_TRUE(of_rule(lint_file("src/io/safe_file.h", src), "reinterpret-cast").empty());
}

TEST(LintKernelAlloc, FlagsGrowthInsideLoop) {
  const std::string src =
      "void f(std::vector<int>& v) {\n"
      "  v.reserve(8);\n"               // outside any loop: fine
      "  for (int i = 0; i < 8; ++i) {\n"
      "    v.push_back(i);\n"           // line 4: growth in loop
      "  }\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/kernels/rhs.cpp", src), "kernel-alloc");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(LintKernelAlloc, FlagsBracelessLoopBodyAndNew) {
  const std::string src =
      "void f(std::vector<std::vector<int>>& v) {\n"
      "  for (auto& t : v) t.resize(9);\n"
      "  while (g()) p = new int[4];\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/grid/lab.h", src), "kernel-alloc");
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].line, 2);
  EXPECT_EQ(ds[1].line, 3);
}

TEST(LintKernelAlloc, OutsideKernelScopeIgnored) {
  const std::string src = "void f() { for (;;) v.push_back(1); }\n";
  EXPECT_TRUE(of_rule(lint_file("src/cluster/x.cpp", src), "kernel-alloc").empty());
}

TEST(LintScalarTail, FlagsMissingTail) {
  const std::string src =
      "void f(float* p, int n) {\n"
      "  constexpr int L = 8;\n"
      "  int i = 0;\n"
      "  for (; i + L <= n; i += L) store(p + i);\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/kernels/update.cpp", src), "scalar-tail");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(LintScalarTail, TailSatisfies) {
  const std::string src =
      "void f(float* p, int n) {\n"
      "  constexpr int L = 8;\n"
      "  int i = 0;\n"
      "  for (; i + L <= n; i += L) store(p + i);\n"
      "  for (; i < n; ++i) p[i] = 0;\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/kernels/update.cpp", src), "scalar-tail").empty());
}

TEST(LintHeaderGuard, RequiresPragmaOnce) {
  const auto ds =
      of_rule(lint_file("src/core/foo.h", "#ifndef FOO_H\n#define FOO_H\n#endif\n"),
              "header-guard");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 1);
  EXPECT_TRUE(of_rule(lint_file("src/core/foo.h", "// doc\n#pragma once\nint x;\n"),
                      "header-guard")
                  .empty());
  // .cpp files have no guard requirement
  EXPECT_TRUE(of_rule(lint_file("src/core/foo.cpp", "int x;\n"), "header-guard").empty());
}

TEST(LintIncludeHygiene, RelativeAndDuplicateIncludes) {
  const std::string src =
      "#include \"../core/simulation.h\"\n"
      "#include \"grid/block.h\"\n"
      "#include \"grid/block.h\"\n";
  const auto ds = of_rule(lint_file("src/core/foo.cpp", src), "include-hygiene");
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].line, 1);  // relative path
  EXPECT_EQ(ds[1].line, 3);  // duplicate
}

TEST(LintSuppression, LineLevelAllowWithJustification) {
  const std::string src =
      "void f() {\n"
      "  // mpcf-lint: allow(raw-io): corruption harness writes broken bytes on purpose\n"
      "  std::FILE* f = std::fopen(\"x\", \"wb\");\n"
      "}\n";
  EXPECT_TRUE(lint_file("tests/t.cpp", src).empty());
}

TEST(LintSuppression, TrailingSameLineAllow) {
  const std::string src =
      "void f() {\n"
      "  std::FILE* f = std::fopen(\"x\", \"wb\");  // mpcf-lint: allow(raw-io): oracle\n"
      "}\n";
  EXPECT_TRUE(lint_file("tests/t.cpp", src).empty());
}

TEST(LintSuppression, AllowWithoutJustificationIsItselfFlagged) {
  const std::string src =
      "  // mpcf-lint: allow(raw-io)\n"
      "  std::FILE* f = std::fopen(\"x\", \"wb\");\n";
  const auto ds = lint_file("tests/t.cpp", src);
  // The bare allow() is rejected AND does not suppress.
  EXPECT_EQ(of_rule(ds, "bad-suppression").size(), 1u);
  EXPECT_EQ(of_rule(ds, "raw-io").size(), 1u);
}

TEST(LintSuppression, UnknownRuleRejected) {
  const auto ds = lint_file("src/a.cpp", "// mpcf-lint: allow(no-such-rule): because\n");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].rule, "bad-suppression");
}

TEST(LintSuppression, FileLevelAllowCoversWholeFile) {
  const std::string src =
      "// mpcf-lint: allow-file(raw-io): this harness exists to write raw broken files\n"
      "void a() { std::FILE* f = std::fopen(\"x\", \"wb\"); }\n"
      "void b() { std::ofstream o(\"y\"); }\n";
  EXPECT_TRUE(lint_file("tests/t.cpp", src).empty());
}

TEST(LintSuppression, AllowOfOtherRuleDoesNotSuppress) {
  const std::string src =
      "  // mpcf-lint: allow(reinterpret-cast): wrong rule named\n"
      "  std::FILE* f = std::fopen(\"x\", \"wb\");\n";
  EXPECT_EQ(of_rule(lint_file("tests/t.cpp", src), "raw-io").size(), 1u);
}

TEST(LintEngine, RuleNamesNonEmptyAndUnique) {
  const auto& rules = mpcf::lint::rule_names();
  EXPECT_GE(rules.size(), 13u);  // 8 core + 4 concurrency + bad-suppression
  for (std::size_t i = 0; i < rules.size(); ++i)
    for (std::size_t j = i + 1; j < rules.size(); ++j) EXPECT_NE(rules[i], rules[j]);
}

// --- atomic-explicit-order -------------------------------------------------

TEST(LintAtomicOrder, ImplicitSeqCstStoreFlagged) {
  const std::string src =
      "std::atomic<bool> stop_{false};\n"
      "void f() { stop_.store(true); }\n";
  const auto ds = of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(LintAtomicOrder, RelaxedWithoutRationaleFlagged) {
  const std::string src =
      "std::atomic<int> n_{0};\n"
      "void f() { n_.store(1, std::memory_order_relaxed); }\n";
  EXPECT_EQ(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").size(),
            1u);
}

TEST(LintAtomicOrder, RelaxedWithAdjacentRationaleClean) {
  const std::string src =
      "std::atomic<int> n_{0};\n"
      "void f() {\n"
      "  // order: relaxed — plain counter, no data published through it\n"
      "  n_.store(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").empty());
}

TEST(LintAtomicOrder, RationaleMayWrapOverCommentBlock) {
  const std::string src =
      "std::atomic<int> n_{0};\n"
      "void f() {\n"
      "  // order: relaxed — the counter only partitions work between\n"
      "  // threads; the handoff happens at join.\n"
      "  const int c = n_.fetch_add(1, std::memory_order_relaxed);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").empty());
}

TEST(LintAtomicOrder, AcquireReleaseNeedNoRationale) {
  const std::string src =
      "std::atomic<int> n_{0};\n"
      "void f() {\n"
      "  n_.store(1, std::memory_order_release);\n"
      "  (void)n_.load(std::memory_order_acquire);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").empty());
}

TEST(LintAtomicOrder, SimdVectorLoadStoreNotAtomic) {
  // vec4/vec8 expose .load(ptr)/.store(ptr); a receiver never declared
  // std::atomic with a pointer argument is SIMD, not concurrency.
  const std::string src =
      "void f(simd::vec4 v, float* p) {\n"
      "  v.store(p);\n"
      "  auto w = simd::vec4::load(p);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/kernels/x.cpp", src), "atomic-explicit-order").empty());
}

TEST(LintAtomicOrder, NullaryLoadAlwaysAtomic) {
  // A no-argument .load() cannot be the SIMD form — flagged even when the
  // receiver's declaration is out of view (e.g. a member of another class).
  const std::string src = "bool f(const Flags& fl) { return fl.stop.load(); }\n";
  EXPECT_EQ(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").size(),
            1u);
}

TEST(LintAtomicOrder, OperatorRmwOnDeclaredAtomicFlagged) {
  const std::string src =
      "std::atomic<int> hits{0};\n"
      "void f() {\n"
      "  ++hits;\n"
      "  hits += 2;\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order");
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds[0].line, 3);
  EXPECT_EQ(ds[1].line, 4);
}

TEST(LintAtomicOrder, OnlyAppliesUnderSrc) {
  const std::string src =
      "std::atomic<int> n{0};\n"
      "void f() { n.store(1); }\n";
  EXPECT_TRUE(
      of_rule(lint_file("tests/test_x.cpp", src), "atomic-explicit-order").empty());
}

TEST(LintAtomicOrder, SuppressibleWithAllow) {
  const std::string src =
      "std::atomic<int> n{0};\n"
      "void f() {\n"
      "  // mpcf-lint: allow(atomic-explicit-order): seq_cst intended, fence pairing\n"
      "  n.store(1);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/core/x.cpp", src), "atomic-explicit-order").empty());
}

// --- blocking-under-lock ---------------------------------------------------

TEST(LintBlockingUnderLock, WaitpidUnderLockGuardFlagged) {
  const std::string src =
      "void reap() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  int st = 0;\n"
      "  ::waitpid(pid_, &st, 0);\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/serve/x.cpp", src), "blocking-under-lock");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(LintBlockingUnderLock, BlockingAfterScopeCloseClean) {
  const std::string src =
      "void f() {\n"
      "  {\n"
      "    std::lock_guard<std::mutex> lock(mu_);\n"
      "    ++n_;\n"
      "  }\n"
      "  ::waitpid(pid_, nullptr, 0);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/serve/x.cpp", src), "blocking-under-lock").empty());
}

TEST(LintBlockingUnderLock, CvWaitTakingTheLockIsExempt) {
  const std::string src =
      "void f() {\n"
      "  std::unique_lock<std::mutex> lock(mu_);\n"
      "  cv_.wait_for(lock, timeout_, pred);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/cluster/x.cpp", src), "blocking-under-lock").empty());
}

TEST(LintBlockingUnderLock, AnnotatedLockGuardWriteFlagged) {
  // The mpcf::LockGuard wrapper counts as a lock; SafeFile::write blocks.
  const std::string src =
      "void f() {\n"
      "  const LockGuard lock(mu_);\n"
      "  file_->write(p, n);\n"
      "}\n";
  EXPECT_EQ(of_rule(lint_file("src/io/x.cpp", src), "blocking-under-lock").size(), 1u);
}

TEST(LintBlockingUnderLock, MultiLineAllowCommentCoversCallBelow) {
  const std::string src =
      "void f() {\n"
      "  std::lock_guard<std::mutex> lock(send_mu_);\n"
      "  // mpcf-lint: allow(blocking-under-lock): designed backpressure — the\n"
      "  // receiver never takes send_mu_, so this cannot deadlock.\n"
      "  futex_wait(&word, val, slice);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/cluster/x.cpp", src), "blocking-under-lock").empty());
}

// --- unchecked-syscall -----------------------------------------------------

TEST(LintUncheckedSyscall, DroppedWaitpidFlagged) {
  const std::string src =
      "void f() {\n"
      "  ::waitpid(pid, &st, 0);\n"
      "}\n";
  const auto ds = of_rule(lint_file("src/serve/spawn.cpp", src), "unchecked-syscall");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(LintUncheckedSyscall, CheckedResultClean) {
  const std::string src =
      "void f() {\n"
      "  if (::rename(a, b) != 0) fail();\n"
      "  const int fd = ::open(p, O_RDONLY);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/io/x.cpp", src), "unchecked-syscall").empty());
}

TEST(LintUncheckedSyscall, VoidCastWithCommentClean) {
  const std::string src =
      "void f() {\n"
      "  // Read-only descriptor: close cannot lose data here.\n"
      "  (void)::close(fd);\n"
      "  (void)::fsync(fd);  // best-effort by design\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/io/x.cpp", src), "unchecked-syscall").empty());
}

TEST(LintUncheckedSyscall, BareVoidCastWithoutCommentFlagged) {
  const std::string src =
      "void f() {\n"
      "\n"
      "  (void)::close(fd);\n"
      "}\n";
  EXPECT_EQ(of_rule(lint_file("src/io/x.cpp", src), "unchecked-syscall").size(), 1u);
}

TEST(LintUncheckedSyscall, OnlyServeAndIoAreInScope) {
  const std::string src = "void f() { ::close(fd); }\n";
  EXPECT_TRUE(of_rule(lint_file("src/cluster/x.cpp", src), "unchecked-syscall").empty());
  EXPECT_TRUE(of_rule(lint_file("tools/x.cpp", src), "unchecked-syscall").empty());
}

TEST(LintUncheckedSyscall, NamespacedCloseIsNotTheSyscall) {
  const std::string src = "void f() { shm_detail::close(h); }\n";
  EXPECT_TRUE(of_rule(lint_file("src/io/x.cpp", src), "unchecked-syscall").empty());
}

// --- thread-entry-exception-barrier ----------------------------------------

TEST(LintThreadEntry, InlineLambdaWithoutBarrierFlagged) {
  const std::string src =
      "void f() {\n"
      "  std::thread t([&] { work(); });\n"
      "  t.join();\n"
      "}\n";
  const auto ds =
      of_rule(lint_file("src/compression/x.cpp", src), "thread-entry-exception-barrier");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 2);
}

TEST(LintThreadEntry, InlineLambdaWithBarrierClean) {
  const std::string src =
      "void f() {\n"
      "  std::exception_ptr err;\n"
      "  std::thread t([&] {\n"
      "    try {\n"
      "      work();\n"
      "    } catch (...) {\n"
      "      err = std::current_exception();\n"
      "    }\n"
      "  });\n"
      "  t.join();\n"
      "}\n";
  EXPECT_TRUE(
      of_rule(lint_file("src/compression/x.cpp", src), "thread-entry-exception-barrier")
          .empty());
}

TEST(LintThreadEntry, NamedLambdaWithoutBarrierInPoolFlagged) {
  const std::string src =
      "void f() {\n"
      "  std::vector<std::thread> pool;\n"
      "  const auto worker = [&] { run(); };\n"
      "  pool.emplace_back(worker);\n"
      "}\n";
  const auto ds =
      of_rule(lint_file("src/io/x.cpp", src), "thread-entry-exception-barrier");
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds[0].line, 4);
}

TEST(LintThreadEntry, NamedLambdaWithBarrierInPoolClean) {
  const std::string src =
      "void f() {\n"
      "  std::vector<std::thread> pool;\n"
      "  std::exception_ptr err;\n"
      "  const auto worker = [&] {\n"
      "    try { run(); } catch (...) { err = std::current_exception(); }\n"
      "  };\n"
      "  pool.emplace_back(worker);\n"
      "}\n";
  EXPECT_TRUE(of_rule(lint_file("src/io/x.cpp", src), "thread-entry-exception-barrier")
                  .empty());
}

// --- JSON output / baseline / fix-suppressions API -------------------------

TEST(LintJson, SchemaAndEscaping) {
  std::vector<Diagnostic> ds = {
      {"src/a.cpp", 3, "raw-io", "say \"no\" to\traw streams"}};
  const std::string j = mpcf::lint::render_json(ds);
  EXPECT_NE(j.find("\"version\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"count\": 1"), std::string::npos);
  EXPECT_NE(j.find("\"file\": \"src/a.cpp\""), std::string::npos);
  EXPECT_NE(j.find("\"line\": 3"), std::string::npos);
  EXPECT_NE(j.find("\\\"no\\\""), std::string::npos);  // quote escaped
  EXPECT_NE(j.find("\\t"), std::string::npos);         // tab escaped
  EXPECT_EQ(j.find('\t'), std::string::npos);          // no literal control chars
}

TEST(LintJson, EmptyDiagnosticsStillWellFormed) {
  const std::string j = mpcf::lint::render_json({});
  EXPECT_NE(j.find("\"count\": 0"), std::string::npos);
  EXPECT_NE(j.find("\"diagnostics\": []"), std::string::npos);
}

TEST(LintBaseline, RoundTripAndMatching) {
  std::vector<Diagnostic> ds = {{"src/a.cpp", 3, "raw-io", "m1"},
                                {"src/a.cpp", 9, "raw-io", "m2"},
                                {"src/b.cpp", 1, "hot-assert", "m3"}};
  const std::string json = mpcf::lint::render_baseline(ds);
  const auto entries = mpcf::lint::parse_baseline(json);
  ASSERT_EQ(entries.size(), 2u);  // (file, rule) dedup across lines
  EXPECT_TRUE(mpcf::lint::baseline_matches(entries, ds[0]));
  EXPECT_TRUE(mpcf::lint::baseline_matches(entries, ds[1]));
  EXPECT_TRUE(mpcf::lint::baseline_matches(entries, ds[2]));
  // A different rule in a baselined file is NOT tolerated.
  EXPECT_FALSE(mpcf::lint::baseline_matches(entries, {"src/a.cpp", 3, "hot-assert", "x"}));
  EXPECT_FALSE(mpcf::lint::baseline_matches(entries, {"src/c.cpp", 3, "raw-io", "x"}));
}

TEST(LintBaseline, ParseToleratesUnknownKeysAndEmpty) {
  EXPECT_TRUE(mpcf::lint::parse_baseline("{\"entries\": []}").empty());
  const auto e = mpcf::lint::parse_baseline(
      "{\"comment\": \"hand written\", \"entries\": [\n"
      "  {\"file\": \"src/x.cpp\", \"note\": \"legacy\", \"rule\": \"raw-io\"}]}");
  ASSERT_EQ(e.size(), 1u);
  EXPECT_EQ(e[0].file, "src/x.cpp");
  EXPECT_EQ(e[0].rule, "raw-io");
}

TEST(LintFixSuppressions, HintNamesTheRule) {
  const Diagnostic d{"src/a.cpp", 3, "blocking-under-lock", "m"};
  const std::string hint = mpcf::lint::suppression_hint(d);
  EXPECT_NE(hint.find("mpcf-lint: allow(blocking-under-lock)"), std::string::npos);
}

TEST(LintSuppression, BadSuppressionCoversNewRuleNames) {
  // allow() of each new rule parses as known...
  for (const char* rule :
       {"atomic-explicit-order", "blocking-under-lock", "unchecked-syscall",
        "thread-entry-exception-barrier"}) {
    const std::string src =
        std::string("// mpcf-lint: allow(") + rule + "): justified here\nint x;\n";
    EXPECT_TRUE(of_rule(lint_file("src/a.cpp", src), "bad-suppression").empty())
        << rule;
  }
  // ...and a typo'd concurrency rule is still bad-suppression.
  const auto ds =
      lint_file("src/a.cpp", "// mpcf-lint: allow(atomic-order): typo\nint x;\n");
  EXPECT_EQ(of_rule(ds, "bad-suppression").size(), 1u);
}

}  // namespace
