#include "rules/engine.h"

#include <array>
#include <cctype>

namespace mpcf::lint {

// ---------------------------------------------------------------------------
// Small text helpers.
// ---------------------------------------------------------------------------

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

std::size_t find_word(const std::string& l, const std::string& w, std::size_t from) {
  for (std::size_t p = l.find(w, from); p != std::string::npos; p = l.find(w, p + 1)) {
    const bool left_ok = p == 0 || !ident_char(l[p - 1]);
    const bool right_ok = p + w.size() >= l.size() || !ident_char(l[p + w.size()]);
    if (left_ok && right_ok) return p;
  }
  return std::string::npos;
}

std::string trimmed(const std::string& l) {
  std::size_t a = l.find_first_not_of(" \t");
  if (a == std::string::npos) return "";
  std::size_t b = l.find_last_not_of(" \t");
  return l.substr(a, b - a + 1);
}

bool path_contains(const std::string& path, const char* piece) {
  for (std::size_t at = path.find(piece); at != std::string::npos;
       at = path.find(piece, at + 1))
    if (at == 0 || path[at - 1] == '/') return true;
  return false;
}

std::size_t skip_ws(const std::string& l, std::size_t p) {
  while (p < l.size() && (l[p] == ' ' || l[p] == '\t')) ++p;
  return p;
}

bool kernel_scope(const std::string& path) {
  return path_contains(path, "src/kernels/") || path_contains(path, "src/grid/lab.h");
}

// ---------------------------------------------------------------------------
// Scanner: split a translation unit into per-line code text (comments and
// string/char literal contents blanked with spaces, so literals can never
// match a rule) and per-line comment text (where annotations live).
// ---------------------------------------------------------------------------

FileImage scan(const std::string& s) {
  FileImage img;
  std::string code_line, comment_line;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar, kRaw };
  St st = St::kCode;
  std::string raw_close;  // ")delim\"" terminator of the active raw string

  auto flush = [&] {
    img.code.push_back(code_line);
    img.comment.push_back(comment_line);
    code_line.clear();
    comment_line.clear();
  };

  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kCode;
      flush();
      continue;
    }
    switch (st) {
      case St::kCode: {
        const char next = i + 1 < s.size() ? s[i + 1] : '\0';
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          code_line += "  ";
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          code_line += "  ";
          ++i;
        } else if (c == '"' && trimmed(code_line).starts_with("#")) {
          // Preprocessor lines keep their quoted text verbatim so
          // include-hygiene can see #include "path" targets; every content
          // rule skips '#' lines.
          code_line += c;
        } else if (c == '"') {
          // R"delim( ... )delim" — only when the quote follows an R prefix.
          if (!code_line.empty() && code_line.back() == 'R' &&
              (code_line.size() < 2 || !ident_char(code_line[code_line.size() - 2]))) {
            std::string delim;
            std::size_t j = i + 1;
            while (j < s.size() && s[j] != '(') delim += s[j++];
            raw_close = ")" + delim + "\"";
            st = St::kRaw;
            code_line += '"';
            for (std::size_t k = i + 1; k <= j && k < s.size(); ++k) code_line += ' ';
            i = j;
          } else {
            st = St::kString;
            code_line += '"';
          }
        } else if (c == '\'' && !(!code_line.empty() && ident_char(code_line.back()))) {
          // Entered only after a non-identifier char: 1'000 digit separators
          // stay plain code.
          st = St::kChar;
          code_line += '\'';
        } else {
          code_line += c;
        }
        break;
      }
      case St::kLineComment:
        comment_line += c;
        code_line += ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && i + 1 < s.size() && s[i + 1] == '/') {
          st = St::kCode;
          code_line += "  ";
          ++i;
        } else {
          comment_line += c;
          code_line += ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && i + 1 < s.size()) {
          code_line += "  ";
          ++i;
        } else if (c == '"') {
          st = St::kCode;
          code_line += '"';
        } else {
          code_line += ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && i + 1 < s.size()) {
          code_line += "  ";
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
          code_line += '\'';
        } else {
          code_line += ' ';
        }
        break;
      case St::kRaw: {
        if (s.compare(i, raw_close.size(), raw_close) == 0) {
          for (std::size_t k = 1; k < raw_close.size(); ++k) code_line += ' ';
          code_line += '"';
          i += raw_close.size() - 1;
          st = St::kCode;
        } else {
          code_line += ' ';
        }
        break;
      }
    }
  }
  flush();
  return img;
}

// ---------------------------------------------------------------------------
// Lexer.
// ---------------------------------------------------------------------------

bool is_ident(const Token& t) {
  return !t.text.empty() && ident_char(t.text[0]) &&
         !std::isdigit(static_cast<unsigned char>(t.text[0]));
}

std::vector<Token> lex(const FileImage& img) {
  static const std::array<const char*, 15> kMulti = {
      "::", "->", "++", "--", "+=", "-=", "|=", "&=",
      "^=", "==", "!=", "<=", ">=", "&&", "||"};
  std::vector<Token> toks;
  for (std::size_t li = 0; li < img.code.size(); ++li) {
    const std::string& l = img.code[li];
    if (trimmed(l).starts_with("#")) continue;  // preprocessor
    const int line = static_cast<int>(li) + 1;
    for (std::size_t p = 0; p < l.size();) {
      if (ident_char(l[p])) {
        std::size_t q = p;
        while (q < l.size() && ident_char(l[q])) ++q;
        toks.push_back({l.substr(p, q - p), line});
        p = q;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(l[p]))) {
        ++p;
        continue;
      }
      if (p + 1 < l.size()) {
        const std::string two = l.substr(p, 2);
        bool matched = false;
        for (const char* m : kMulti) {
          if (two == m) {
            toks.push_back({two, line});
            p += 2;
            matched = true;
            break;
          }
        }
        if (matched) continue;
      }
      toks.push_back({std::string(1, l[p]), line});
      ++p;
    }
  }
  return toks;
}

int match_forward(const std::vector<Token>& toks, int open) {
  if (open < 0 || open >= static_cast<int>(toks.size())) return -1;
  const std::string& o = toks[open].text;
  std::string close;
  if (o == "(") close = ")";
  else if (o == "[") close = "]";
  else if (o == "{") close = "}";
  else if (o == "<") close = ">";
  else return -1;
  const bool angle = o == "<";
  int depth = 0;
  for (int i = open; i < static_cast<int>(toks.size()); ++i) {
    const std::string& t = toks[i].text;
    if (t == o) ++depth;
    else if (t == close) {
      --depth;
      if (depth == 0) return i;
    } else if (angle && (t == ";" || t == "{")) {
      return -1;  // not a template argument list after all
    }
  }
  return -1;
}

int receiver_of(const std::vector<Token>& toks, int dot) {
  int i = dot - 1;
  while (i >= 0) {
    const std::string& t = toks[i].text;
    if (t == ")" || t == "]") {
      const std::string open = t == ")" ? "(" : "[";
      int depth = 1;
      --i;
      while (i >= 0 && depth > 0) {
        if (toks[i].text == t) ++depth;
        else if (toks[i].text == open) --depth;
        --i;
      }
      if (depth > 0) return -1;
      continue;  // i is now just before the opener (fn name or another group)
    }
    if (is_ident(toks[i])) return i;
    return -1;
  }
  return -1;
}

// ---------------------------------------------------------------------------
// Per-file symbol table.
// ---------------------------------------------------------------------------

bool range_has_exception_barrier(const std::vector<Token>& toks, int begin, int end) {
  bool has_catch = false, has_ptr = false;
  for (int i = begin; i < end && i < static_cast<int>(toks.size()); ++i) {
    const std::string& t = toks[i].text;
    if (t == "catch") has_catch = true;
    if (t == "current_exception" || t == "exception_ptr") has_ptr = true;
  }
  return has_catch && has_ptr;
}

SymbolTable build_symbols(const std::vector<Token>& toks) {
  SymbolTable s;
  const int n = static_cast<int>(toks.size());
  for (int i = 0; i < n; ++i) {
    const std::string& t = toks[i].text;

    // std::atomic<...> declarations: skip the balanced template argument
    // list, then skip declarator decorations (*, &, const, [], the closing >
    // of an enclosing template like unique_ptr<atomic<int>[]>) to the
    // declared name. Covers locals, members, parameters, and functions
    // returning atomic pointers.
    if (t == "atomic" && i + 1 < n && toks[i + 1].text == "<") {
      const int close = match_forward(toks, i + 1);
      if (close < 0) continue;
      int j = close + 1;
      while (j < n &&
             (toks[j].text == "*" || toks[j].text == "&" || toks[j].text == "const" ||
              toks[j].text == "[" || toks[j].text == "]" || toks[j].text == ">"))
        ++j;
      if (j < n && is_ident(toks[j])) s.atomics.insert(toks[j].text);
      continue;
    }

    // Containers of std::thread (worker pools): vector<...thread...> name.
    if (t == "vector" && i + 1 < n && toks[i + 1].text == "<") {
      const int close = match_forward(toks, i + 1);
      if (close < 0) continue;
      bool has_thread = false;
      for (int k = i + 2; k < close; ++k)
        if (toks[k].text == "thread") has_thread = true;
      if (!has_thread) continue;
      const int j = close + 1;
      if (j < n && is_ident(toks[j])) s.thread_pools.insert(toks[j].text);
      continue;
    }

    // Lambda-valued locals: NAME = [captures](params) ... { body }. Classify
    // by whether the body contains the exception barrier convention.
    if (t == "=" && i + 1 < n && toks[i + 1].text == "[" && i > 0 &&
        is_ident(toks[i - 1])) {
      const int cap_close = match_forward(toks, i + 1);
      if (cap_close < 0) continue;
      int j = cap_close + 1;
      if (j < n && toks[j].text == "(") {
        const int pc = match_forward(toks, j);
        if (pc < 0) continue;
        j = pc + 1;
      }
      while (j < n && toks[j].text != "{" && toks[j].text != ";") ++j;
      if (j >= n || toks[j].text != "{") continue;
      const int body_close = match_forward(toks, j);
      if (body_close < 0) continue;
      const std::string& name = toks[i - 1].text;
      if (range_has_exception_barrier(toks, j, body_close))
        s.lambdas_with_barrier.insert(name);
      else
        s.lambdas_without_barrier.insert(name);
      continue;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Rule registry.
// ---------------------------------------------------------------------------

const std::vector<Rule>& all_rules() {
  static const std::vector<Rule> kRules = [] {
    std::vector<Rule> r;
    detail::register_core_rules(r);
    detail::register_concurrency_rules(r);
    return r;
  }();
  return kRules;
}

}  // namespace mpcf::lint
