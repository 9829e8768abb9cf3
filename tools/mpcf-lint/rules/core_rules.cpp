// Core rule pack: the original project-invariant rules from PR 4, ported
// onto the rules/engine.h substrate. Behavior is unchanged; each rule is a
// registered pass over the shared FileImage / token stream.
#include <algorithm>
#include <array>
#include <set>

#include "rules/engine.h"

namespace mpcf::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule: raw-io — no fopen/ofstream/... outside src/io (SafeFile is the only
// crash-safe writer; see DESIGN.md §8).
// ---------------------------------------------------------------------------

void rule_raw_io(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (path_contains(ctx.path, "src/io/")) return;
  static const std::array<const char*, 5> kTokens = {"fopen", "freopen", "ofstream",
                                                     "ifstream", "fstream"};
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string& l = ctx.img.code[li];
    if (!l.empty() && trimmed(l).starts_with("#")) continue;  // includes etc.
    for (const char* tok : kTokens) {
      if (find_word(l, tok) != std::string::npos) {
        out->push_back({ctx.path, static_cast<int>(li) + 1, "raw-io",
                        std::string("raw file I/O ('") + tok +
                            "') outside src/io; use io::SafeFile / io::read_file"});
        break;  // one diagnostic per line is enough
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: openmp-in-src — src/ runs one thread runtime: every parallel loop
// runs on the chunk loop's workers (DESIGN.md §5), and thread_count(), in
// the one exempt file, is the only OpenMP call. Flags #pragma omp, an
// omp.h include and any omp_ identifier.
// ---------------------------------------------------------------------------

void rule_openmp_in_src(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!path_contains(ctx.path, "src/") || path_contains(ctx.path, "src/common/chunk_loop.cpp"))
    return;
  const auto flag = [&](int line, const std::string& what) {
    out->push_back({ctx.path, line, "openmp-in-src",
                    "OpenMP (" + what +
                        ") in src/; run the loop on for_each_chunk or run_workers "
                        "(common/chunk_loop.h), whose thread_count() is the one OpenMP call"});
  };
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string t = trimmed(ctx.img.code[li]);
    if (!t.starts_with("#")) continue;
    const std::size_t d = skip_ws(t, 1);
    if (t.compare(d, 6, "pragma") == 0 && find_word(t, "omp", d + 6) == skip_ws(t, d + 6))
      flag(static_cast<int>(li) + 1, "#pragma omp");
    else if (t.compare(d, 7, "include") == 0 && (t.find("<omp.h>") != std::string::npos ||
                                                 t.find("\"omp.h\"") != std::string::npos))
      flag(static_cast<int>(li) + 1, "omp.h");
  }
  int last = 0;  // one diagnostic per line
  for (const Token& tok : ctx.toks)
    if (tok.line != last && is_ident(tok) && tok.text.starts_with("omp_")) {
      flag(tok.line, "'" + tok.text + "'");
      last = tok.line;
    }
}

// ---------------------------------------------------------------------------
// Rule: hot-assert — assert() is compiled out by NDEBUG and its failure mode
// (abort, no provenance) is useless at scale; src/ uses MPCF_CHECK.
// ---------------------------------------------------------------------------

void rule_hot_assert(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!path_contains(ctx.path, "src/")) return;
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string& l = ctx.img.code[li];
    for (std::size_t p = find_word(l, "assert"); p != std::string::npos;
         p = find_word(l, "assert", p + 1)) {
      const std::size_t q = skip_ws(l, p + 6);
      if (q < l.size() && l[q] == '(') {
        out->push_back({ctx.path, static_cast<int>(li) + 1, "hot-assert",
                        "assert() in src/; use MPCF_CHECK (common/check.h) so the "
                        "guard exists exactly in MPCF_CHECKED builds with provenance"});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: reinterpret-cast — type punning is confined to the SIMD backends and
// the serialization layer; anywhere else it must be justified in place.
// ---------------------------------------------------------------------------

void rule_reinterpret_cast(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (path_contains(ctx.path, "src/simd/") || path_contains(ctx.path, "src/io/"))
    return;
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    if (find_word(ctx.img.code[li], "reinterpret_cast") != std::string::npos)
      out->push_back({ctx.path, static_cast<int>(li) + 1, "reinterpret-cast",
                      "reinterpret_cast outside the src/simd + src/io whitelist"});
  }
}

// ---------------------------------------------------------------------------
// Rule: kernel-alloc — no heap allocation or container growth inside loops
// of kernel-scope files (src/kernels/, src/grid/lab.h). A token walk tracks
// for/while bodies (braced or single-statement) and flags new/malloc family
// and growth member calls inside them.
// ---------------------------------------------------------------------------

void rule_kernel_alloc(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!kernel_scope(ctx.path)) return;
  const std::vector<Token>& toks = ctx.toks;

  static const std::array<const char*, 4> kAllocCalls = {"malloc", "calloc", "realloc",
                                                         "aligned_alloc"};
  static const std::array<const char*, 5> kGrowthCalls = {"push_back", "emplace_back",
                                                          "resize", "reserve", "insert"};

  std::vector<bool> brace_is_loop;  // one entry per open {
  int inline_loops = 0;             // brace-less for/while bodies (until ';')
  bool pending_loop = false;        // saw for/while, inside its (...) header
  int header_parens = 0;
  bool awaiting_body = false;  // header closed, body token comes next

  auto loop_depth = [&] {
    int d = inline_loops;
    for (bool b : brace_is_loop) d += b ? 1 : 0;
    return d;
  };

  for (std::size_t t = 0; t < toks.size(); ++t) {
    const std::string& x = toks[t].text;

    if (awaiting_body) {
      awaiting_body = false;
      if (x == "{") {
        brace_is_loop.push_back(true);
        continue;
      }
      if (x == "for" || x == "while") {
        // chained brace-less loop: for(..) for(..) { ... }
        inline_loops += 1;  // outer loop's body is the inner loop statement
      } else {
        inline_loops += 1;  // single-statement body, runs until next ';'
      }
      // fall through so the current token is still processed below
    }

    if (pending_loop) {
      if (x == "(") ++header_parens;
      if (x == ")") {
        --header_parens;
        if (header_parens == 0) {
          pending_loop = false;
          awaiting_body = true;
        }
      }
      continue;  // nothing inside a loop header is a body allocation
    }

    if (x == "for" || x == "while") {
      pending_loop = true;
      header_parens = 0;
      continue;
    }
    if (x == "{") {
      brace_is_loop.push_back(false);
      continue;
    }
    if (x == "}") {
      if (!brace_is_loop.empty()) brace_is_loop.pop_back();
      continue;
    }
    if (x == ";") {
      if (inline_loops > 0) inline_loops = 0;  // statement bodies all end here
      continue;
    }

    if (loop_depth() == 0) continue;

    if (x == "new" ||
        std::find(kAllocCalls.begin(), kAllocCalls.end(), x) != kAllocCalls.end()) {
      out->push_back({ctx.path, toks[t].line, "kernel-alloc",
                      "'" + x + "' inside a kernel loop; allocate in resize()/setup"});
      continue;
    }
    const bool member_call =
        t > 0 && (toks[t - 1].text == "." || toks[t - 1].text == "->") &&
        t + 1 < toks.size() && toks[t + 1].text == "(";
    if (member_call &&
        std::find(kGrowthCalls.begin(), kGrowthCalls.end(), x) != kGrowthCalls.end()) {
      out->push_back({ctx.path, toks[t].line, "kernel-alloc",
                      "container growth ('." + x +
                          "') inside a kernel loop; preallocate in resize()/setup"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: scalar-tail — a width-strided loop (for (; i + L <= n; i += L)) in a
// kernel file must be followed by a scalar remainder loop, or block sizes
// that are not a multiple of the vector width silently drop cells.
// ---------------------------------------------------------------------------

/// Extracts the stride token of a vector main loop on this line ("" if the
/// line is not one): a `for` line containing `+ X <=` and `+= X`.
std::string stride_of(const std::string& l) {
  if (find_word(l, "for") == std::string::npos) return "";
  const std::size_t pe = l.find("+=");
  if (pe == std::string::npos) return "";
  std::size_t q = skip_ws(l, pe + 2);
  std::size_t e = q;
  while (e < l.size() && ident_char(l[e])) ++e;
  if (e == q) return "";
  const std::string stride = l.substr(q, e - q);
  // require "+ stride <=" earlier in the line (whitespace-tolerant)
  for (std::size_t p = l.find('+'); p != std::string::npos && p < pe;
       p = l.find('+', p + 1)) {
    std::size_t a = skip_ws(l, p + 1);
    if (l.compare(a, stride.size(), stride) != 0) continue;
    std::size_t b = skip_ws(l, a + stride.size());
    if (l.compare(b, 2, "<=") == 0) return stride;
  }
  return "";
}

void rule_scalar_tail(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!kernel_scope(ctx.path) && !path_contains(ctx.path, "src/simd/")) return;
  constexpr std::size_t kWindow = 80;  // tail must appear within this many lines
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string stride = stride_of(ctx.img.code[li]);
    if (stride.empty()) continue;
    bool tail = false;
    for (std::size_t lj = li + 1; lj < ctx.img.code.size() && lj <= li + kWindow;
         ++lj) {
      const std::string& l = ctx.img.code[lj];
      if (find_word(l, "for") == std::string::npos) continue;
      if (l.find("+= " + stride) != std::string::npos || !stride_of(l).empty())
        continue;  // another vector loop, not a tail
      if (l.find('<') != std::string::npos && l.find("++") != std::string::npos) {
        tail = true;
        break;
      }
    }
    if (!tail)
      out->push_back({ctx.path, static_cast<int>(li) + 1, "scalar-tail",
                      "width-strided loop (stride '" + stride +
                          "') has no scalar tail loop after it"});
  }
}

// ---------------------------------------------------------------------------
// Rule: header-guard — every header opens with #pragma once (repo idiom).
// ---------------------------------------------------------------------------

void rule_header_guard(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!ctx.path.ends_with(".h")) return;
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string t = trimmed(ctx.img.code[li]);
    if (t.empty()) continue;
    if (!t.starts_with("#pragma once"))
      out->push_back({ctx.path, static_cast<int>(li) + 1, "header-guard",
                      "header's first directive must be #pragma once"});
    return;
  }
  out->push_back({ctx.path, 1, "header-guard", "empty header (no #pragma once)"});
}

// ---------------------------------------------------------------------------
// Rule: include-hygiene — no ./ or ../ relative includes (all repo includes
// are rooted at src/), no duplicate includes.
// ---------------------------------------------------------------------------

void rule_include_hygiene(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  std::set<std::string> seen;
  for (std::size_t li = 0; li < ctx.img.code.size(); ++li) {
    const std::string t = trimmed(ctx.img.code[li]);
    if (!t.starts_with("#include")) continue;
    const int line = static_cast<int>(li) + 1;
    const std::size_t open = t.find_first_of("\"<", 8);
    if (open == std::string::npos) continue;  // computed include, out of scope
    const char close_ch = t[open] == '<' ? '>' : '"';
    const std::size_t close = t.find(close_ch, open + 1);
    if (close == std::string::npos) continue;
    const std::string target = t.substr(open + 1, close - open - 1);
    if (target.starts_with("./") || target.starts_with("../") ||
        target.find("/./") != std::string::npos ||
        target.find("/../") != std::string::npos)
      out->push_back({ctx.path, line, "include-hygiene",
                      "relative #include path '" + target +
                          "'; include repo headers rooted at src/"});
    if (!seen.insert(target).second)
      out->push_back(
          {ctx.path, line, "include-hygiene", "duplicate #include of '" + target + "'"});
  }
}

}  // namespace

void detail::register_core_rules(std::vector<Rule>& rules) {
  rules.push_back({"raw-io", &rule_raw_io});
  rules.push_back({"openmp-in-src", &rule_openmp_in_src});
  rules.push_back({"kernel-alloc", &rule_kernel_alloc});
  rules.push_back({"hot-assert", &rule_hot_assert});
  rules.push_back({"reinterpret-cast", &rule_reinterpret_cast});
  rules.push_back({"scalar-tail", &rule_scalar_tail});
  rules.push_back({"header-guard", &rule_header_guard});
  rules.push_back({"include-hygiene", &rule_include_hygiene});
}

}  // namespace mpcf::lint
