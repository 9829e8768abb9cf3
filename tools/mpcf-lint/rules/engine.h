// Shared analysis substrate of the mpcf-lint rule packs (see lint.h for the
// tool contract). One scan of each translation unit produces:
//
//   FileImage    per-line code text (comments + literal contents blanked)
//                and per-line comment text (where annotations live)
//   Token        a lexed token stream over the code text (identifiers and
//                punctuation; "::", "->", "++" and friends are single tokens)
//   SymbolTable  per-file names that matter to the concurrency rules: which
//                identifiers are declared std::atomic, which locals are
//                lambdas (and whether their body contains an exception
//                barrier), which locals are std::thread containers
//
// Rules are registered passes over a RuleContext bundling all of the above;
// lint.cpp runs every registered rule and applies the suppression grammar.
// New rules live in rules/*.cpp and self-describe via Rule::name, which also
// feeds rule_names() — the allow()/bad-suppression machinery picks up a new
// rule with zero extra wiring.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "lint.h"

namespace mpcf::lint {

// --- text helpers ----------------------------------------------------------

[[nodiscard]] bool ident_char(char c);
/// Position of whole-word occurrence of `w` in `l` at or after `from`;
/// npos if none.
[[nodiscard]] std::size_t find_word(const std::string& l, const std::string& w,
                                    std::size_t from = 0);
[[nodiscard]] std::string trimmed(const std::string& l);
/// True if `piece` (a directory path such as "src/io/") occurs in `path` at
/// its start or right after a '/': "final_src/tests/t.cpp" is not under
/// "src/".
[[nodiscard]] bool path_contains(const std::string& path, const char* piece);
[[nodiscard]] std::size_t skip_ws(const std::string& l, std::size_t p);
/// Kernel-scope files: allocation + scalar-tail discipline applies.
[[nodiscard]] bool kernel_scope(const std::string& path);

// --- scanner ---------------------------------------------------------------

struct FileImage {
  std::vector<std::string> code;     ///< literals/comments blanked with spaces
  std::vector<std::string> comment;  ///< comment text, same line indexing
};

/// Splits a translation unit into code and comment text. Preprocessor lines
/// keep their quoted text verbatim (include-hygiene needs #include targets);
/// every content rule skips '#' lines.
[[nodiscard]] FileImage scan(const std::string& s);

// --- token stream ----------------------------------------------------------

struct Token {
  std::string text;  ///< identifier/number, or punctuation ("::", "->", 1-char)
  int line = 0;      ///< 1-based
};

/// Lexes the code text of `img`, skipping preprocessor lines. Multi-char
/// operators that rules care about ("::", "->", "++", "--", "+=", "-=",
/// "|=", "&=", "^=", "==", "!=", "<=", ">=", "&&", "||") are single tokens.
[[nodiscard]] std::vector<Token> lex(const FileImage& img);

[[nodiscard]] bool is_ident(const Token& t);

/// Index of the token matching the opener at `open` ("(" / "[" / "{" / "<",
/// counting nesting of the same pair); -1 if unbalanced. For "<" the match
/// is heuristic (template argument lists) and gives up at ";".
[[nodiscard]] int match_forward(const std::vector<Token>& toks, int open);

/// Walks left from `dot` (a "." or "->" token) over balanced (...) / [...]
/// groups to the receiver identifier of a member access; -1 if none, e.g.
/// `pids()[r].store(..)` resolves to `pids`.
[[nodiscard]] int receiver_of(const std::vector<Token>& toks, int dot);

// --- scope tracker ---------------------------------------------------------

/// Minimal brace-depth tracker for token walks. Rules feed every token and
/// read the depth; lock/loop lifetimes key off "depth dropped below D".
class ScopeTracker {
 public:
  void feed(const Token& t) {
    if (t.text == "{") ++depth_;
    else if (t.text == "}" && depth_ > 0) --depth_;
  }
  [[nodiscard]] int depth() const { return depth_; }

 private:
  int depth_ = 0;
};

// --- per-file symbol table -------------------------------------------------

struct SymbolTable {
  /// Names declared with type std::atomic<...> anywhere in the file: locals,
  /// members, parameters, and functions returning atomic pointers (so
  /// `pids()[r].store(..)` resolves). SIMD vec types also expose .load/.store
  /// — this set is what keeps them out of atomic-explicit-order.
  std::set<std::string> atomics;
  /// Lambda-valued locals whose body contains a try/catch storing into an
  /// exception_ptr (the worker-pool convention)...
  std::set<std::string> lambdas_with_barrier;
  /// ...and lambda-valued locals whose body does not.
  std::set<std::string> lambdas_without_barrier;
  /// Locals declared as containers of std::thread (worker pools).
  std::set<std::string> thread_pools;
};

[[nodiscard]] SymbolTable build_symbols(const std::vector<Token>& toks);

/// True if the token range [begin, end) contains a catch handler that stores
/// the current exception into an exception_ptr (directly or via a named
/// exception_ptr variable).
[[nodiscard]] bool range_has_exception_barrier(const std::vector<Token>& toks,
                                               int begin, int end);

// --- rule registry ---------------------------------------------------------

struct RuleContext {
  const std::string& path;
  const FileImage& img;
  const std::vector<Token>& toks;
  const SymbolTable& syms;
};

struct Rule {
  const char* name;
  void (*fn)(const RuleContext&, std::vector<Diagnostic>*);
};

/// Every registered rule, in registration order (core pack first, then the
/// concurrency pack). "bad-suppression" is engine-level, not in this list.
[[nodiscard]] const std::vector<Rule>& all_rules();

namespace detail {
void register_core_rules(std::vector<Rule>& rules);
void register_concurrency_rules(std::vector<Rule>& rules);
}  // namespace detail

}  // namespace mpcf::lint
