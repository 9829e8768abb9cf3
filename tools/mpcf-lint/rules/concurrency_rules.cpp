// Concurrency & resource rule pack. These rules encode the discipline the
// lock-free/overlapped machinery (step scheduler, shm transport, compression
// pipeline, job service) depends on; TSan only catches the races the test
// suite happens to execute, these catch the ones it doesn't.
//
//   atomic-explicit-order          every atomic op in src/ names its
//                                  memory_order; relaxed additionally needs
//                                  an adjacent "// order:" rationale comment
//   blocking-under-lock            no blocking call while a lock_guard/
//                                  unique_lock/scoped_lock local is live
//   unchecked-syscall              raw syscall results in src/serve + src/io
//                                  must be checked or (void)'d with a comment
//   thread-entry-exception-barrier std::thread / worker-pool entry lambdas
//                                  must catch into an exception_ptr
#include <array>
#include <string>

#include "rules/engine.h"

namespace mpcf::lint {
namespace {

bool in_src(const std::string& path) { return path_contains(path, "src/"); }

/// True if a rationale comment containing `tag` is adjacent to the op:
/// on the op's own line, or anywhere in the contiguous block of
/// comment-only lines immediately above it. Walking the whole block lets
/// rationales wrap naturally instead of cramming onto one line.
bool adjacent_comment_contains(const FileImage& img, int line, const char* tag) {
  const auto comment_at = [&](int l) -> const std::string* {
    const int idx = l - 1;  // 1-based lines
    if (idx < 0 || idx >= static_cast<int>(img.comment.size())) return nullptr;
    return &img.comment[idx];
  };
  const auto comment_only = [&](int l) {
    const int idx = l - 1;
    return idx >= 0 && idx < static_cast<int>(img.code.size()) &&
           trimmed(img.code[idx]).empty() && !trimmed(img.comment[idx]).empty();
  };
  if (const std::string* c = comment_at(line); c && c->find(tag) != std::string::npos)
    return true;
  for (int l = line - 1; l >= 1 && comment_only(l); --l)
    if (comment_at(l)->find(tag) != std::string::npos) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Rule: atomic-explicit-order.
//
// Implicit-seq_cst atomics hide a decision: either seq_cst is required (rare,
// worth saying) or a weaker order is safe (worth taking — these sit on hot
// counters). The rule forces the decision into the source:
//   - fetch_* / compare_exchange* member calls are always atomic ops;
//   - a nullary .load() is always an atomic op (the SIMD vec load always
//     takes a pointer argument);
//   - .load/.store/.exchange with arguments are atomic ops only when the
//     receiver resolves to a name declared std::atomic in this file (keeps
//     vec4/vec8 .store(ptr) out);
//   - ++/--/compound-assignment on a declared atomic name is an implicit
//     seq_cst RMW and always flagged (spell the fetch_* out);
//   - any op passing memory_order_relaxed needs an adjacent "// order:"
//     comment saying why relaxed is safe — the weakest order is the one
//     future readers most need justified.
// ---------------------------------------------------------------------------

bool is_atomic_op_name(const std::string& t) {
  return t == "load" || t == "store" || t == "exchange" ||
         t.starts_with("fetch_") || t.starts_with("compare_exchange");
}

void rule_atomic_order(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!in_src(ctx.path)) return;
  const std::vector<Token>& toks = ctx.toks;
  const int n = static_cast<int>(toks.size());

  for (int i = 0; i < n; ++i) {
    const std::string& t = toks[i].text;

    // Member-call form: RECEIVER.op(...) / RECEIVER->op(...).
    if (is_atomic_op_name(t) && i > 0 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") && i + 1 < n &&
        toks[i + 1].text == "(") {
      const int close = match_forward(toks, i + 1);
      if (close < 0) continue;
      bool has_order = false, has_relaxed = false;
      for (int k = i + 2; k < close; ++k) {
        if (toks[k].text.starts_with("memory_order")) has_order = true;
        if (toks[k].text == "memory_order_relaxed" ||
            (toks[k].text == "relaxed" && k >= 2 &&
             toks[k - 1].text == "::" && toks[k - 2].text == "memory_order"))
          has_relaxed = true;
      }
      const bool nullary = close == i + 2;
      bool is_atomic = t.starts_with("fetch_") || t.starts_with("compare_exchange") ||
                       (t == "load" && nullary) || has_order;
      if (!is_atomic) {
        const int recv = receiver_of(toks, i - 1);
        is_atomic = recv >= 0 && ctx.syms.atomics.count(toks[recv].text) > 0;
      }
      if (!is_atomic) continue;
      if (!has_order) {
        out->push_back({ctx.path, toks[i].line, "atomic-explicit-order",
                        "atomic '" + t +
                            "' without explicit memory_order (implicit seq_cst); "
                            "name the order and say why in a // order: comment"});
      } else if (has_relaxed &&
                 !adjacent_comment_contains(ctx.img, toks[i].line, "order:")) {
        out->push_back({ctx.path, toks[i].line, "atomic-explicit-order",
                        "relaxed atomic '" + t +
                            "' needs an adjacent '// order:' rationale comment"});
      }
      continue;
    }

    // Operator form on a declared atomic: ++x / x++ / x += 1 — an implicit
    // seq_cst RMW. Declarations themselves don't parse as this shape.
    if (is_ident(toks[i]) && ctx.syms.atomics.count(t) > 0) {
      static const std::array<const char*, 7> kRmw = {"++", "--", "+=", "-=",
                                                      "|=", "&=", "^="};
      const std::string prev = i > 0 ? toks[i - 1].text : "";
      const std::string next = i + 1 < n ? toks[i + 1].text : "";
      bool rmw = prev == "++" || prev == "--";
      for (const char* op : kRmw) rmw = rmw || next == op;
      // `atomic<T> x ++` can't occur; but `x ++` after a member access is the
      // receiver of something else — only flag when x itself is the operand.
      if (rmw && prev != "." && prev != "->") {
        out->push_back({ctx.path, toks[i].line, "atomic-explicit-order",
                        "operator RMW on atomic '" + t +
                            "' is implicit seq_cst; use fetch_* with an explicit "
                            "memory_order"});
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: blocking-under-lock.
//
// A lock_guard/unique_lock/scoped_lock local makes every statement until its
// scope closes a critical section; calling into something that can block for
// unbounded time (transport recv, futex waits, cv waits, fsync, waitpid,
// SafeFile write/commit, thread join) inside one turns a latency bug into a
// system-wide stall — or a deadlock when the blocked party needs the lock.
// Exemption: a call that receives the live lock variable as an argument is
// the cv-wait idiom (the wait releases the lock) and is fine.
// ---------------------------------------------------------------------------

bool is_lock_type(const std::string& t) {
  return t == "lock_guard" || t == "unique_lock" || t == "scoped_lock" ||
         t == "LockGuard" || t == "UniqueLock";
}

bool is_blocking_name(const std::string& t, bool member_call) {
  // Bare or member form: genuinely blocking primitives.
  if (t == "recv" || t == "futex_wait" || t == "waitpid" || t == "reap_any" ||
      t == "fsync" || t == "fdatasync" || t == "join" || t == "barrier")
    return true;
  // Member-call-only: cv/future waits and the SafeFile write path. The bare
  // names are too generic to match globally.
  if (member_call &&
      (t == "wait" || t == "wait_for" || t == "wait_until" || t == "write" ||
       t == "write_line" || t == "commit"))
    return true;
  return false;
}

void rule_blocking_under_lock(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!in_src(ctx.path)) return;
  const std::vector<Token>& toks = ctx.toks;
  const int n = static_cast<int>(toks.size());

  struct LiveLock {
    std::string name;
    int depth;
    int line;
  };
  std::vector<LiveLock> locks;
  ScopeTracker scope;

  for (int i = 0; i < n; ++i) {
    const std::string& t = toks[i].text;
    if (t == "}") {
      scope.feed(toks[i]);
      while (!locks.empty() && locks.back().depth > scope.depth()) locks.pop_back();
      continue;
    }
    scope.feed(toks[i]);

    // Lock declaration: [std::] lock_guard[<...>] NAME ( / { ...
    if (is_lock_type(t)) {
      int j = i + 1;
      if (j < n && toks[j].text == "<") {
        const int close = match_forward(toks, j);
        if (close < 0) continue;
        j = close + 1;
      }
      if (j < n && is_ident(toks[j]) && j + 1 < n &&
          (toks[j + 1].text == "(" || toks[j + 1].text == "{")) {
        locks.push_back({toks[j].text, scope.depth(), toks[j].line});
      }
      continue;
    }

    if (locks.empty()) continue;

    // Blocking call while a lock is live?
    const bool member_call =
        i > 0 && (toks[i - 1].text == "." || toks[i - 1].text == "->");
    if (!is_blocking_name(t, member_call)) continue;
    if (i + 1 >= n || toks[i + 1].text != "(") continue;
    const int close = match_forward(toks, i + 1);
    if (close < 0) continue;
    // cv-wait idiom: the call takes the live lock as an argument.
    bool takes_lock = false;
    for (int k = i + 2; k < close && !takes_lock; ++k) {
      for (const LiveLock& lk : locks)
        if (toks[k].text == lk.name) takes_lock = true;
    }
    if (takes_lock) continue;
    const LiveLock& lk = locks.back();
    out->push_back({ctx.path, toks[i].line, "blocking-under-lock",
                    "blocking call '" + t + "' while lock '" + lk.name +
                        "' (declared line " + std::to_string(lk.line) +
                        ") is live; shrink the critical section or justify with "
                        "an allow comment"});
  }
}

// ---------------------------------------------------------------------------
// Rule: unchecked-syscall.
//
// In the fork/exec service and the crash-safe I/O layer, a dropped syscall
// result is a silent durability or zombie bug. A raw ::call( in statement
// position (preceded by ; { } ) else do :) is unchecked; a (void)-cast is
// accepted only together with an adjacent comment saying why dropping the
// result is correct.
// ---------------------------------------------------------------------------

bool is_watched_syscall(const std::string& t) {
  return t == "fork" || t == "waitpid" || t == "open" || t == "close" ||
         t == "write" || t == "fsync" || t == "rename" || t == "kill";
}

void rule_unchecked_syscall(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!path_contains(ctx.path, "src/serve") && !path_contains(ctx.path, "src/io"))
    return;
  const std::vector<Token>& toks = ctx.toks;
  const int n = static_cast<int>(toks.size());

  for (int i = 0; i < n; ++i) {
    if (!is_watched_syscall(toks[i].text)) continue;
    if (i + 1 >= n || toks[i + 1].text != "(") continue;
    // Raw call: ::name( at global scope, or std::rename(.
    if (i < 1 || toks[i - 1].text != "::") continue;
    int before = i - 2;  // token before the qualifier
    if (before >= 0 && toks[before].text == "std") --before;
    else if (before >= 0 && is_ident(toks[before])) continue;  // some::ns::close

    // (void)-cast form: tokens ( void ) immediately before the call. The
    // cast is accepted only with a comment on the same line or in the
    // comment block above saying why dropping the result is correct.
    if (before >= 2 && toks[before].text == ")" && toks[before - 1].text == "void" &&
        toks[before - 2].text == "(") {
      const auto line_comment = [&](int l) {
        const int idx = l - 1;
        return idx >= 0 && idx < static_cast<int>(ctx.img.comment.size()) &&
               !trimmed(ctx.img.comment[idx]).empty();
      };
      const auto line_code = [&](int l) {
        const int idx = l - 1;
        return idx >= 0 && idx < static_cast<int>(ctx.img.code.size()) &&
               !trimmed(ctx.img.code[idx]).empty();
      };
      bool justified = line_comment(toks[i].line) ||
                       (line_comment(toks[i].line - 1) && !line_code(toks[i].line - 1));
      if (!justified) {
        out->push_back({ctx.path, toks[i].line, "unchecked-syscall",
                        "(void)'d syscall '" + toks[i].text +
                            "' needs an adjacent comment justifying the drop"});
      }
      continue;
    }

    // Statement position => result discarded.
    const std::string prev = before >= 0 ? toks[before].text : ";";
    if (prev == ";" || prev == "{" || prev == "}" || prev == ")" || prev == "else" ||
        prev == "do" || prev == ":") {
      out->push_back({ctx.path, toks[i].line, "unchecked-syscall",
                      "result of ::" + toks[i].text +
                          "() is dropped; check it or cast to (void) with a "
                          "justification comment"});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: thread-entry-exception-barrier.
//
// An exception escaping a std::thread entry calls std::terminate with no
// provenance. The dump pipeline's convention is a try/catch in every
// entry lambda storing into an exception_ptr that the owner rethrows after
// join; this rule enforces it at every std::thread construction and
// worker-pool emplace. Entry arguments it cannot resolve (function pointers,
// bind expressions) are left alone.
// ---------------------------------------------------------------------------

void check_entry_arg(const RuleContext& ctx, int arg, std::vector<Diagnostic>* out) {
  const std::vector<Token>& toks = ctx.toks;
  const int n = static_cast<int>(toks.size());
  if (arg >= n) return;

  // Inline lambda: [caps](params) ... { body }
  if (toks[arg].text == "[") {
    const int cap_close = match_forward(toks, arg);
    if (cap_close < 0) return;
    int j = cap_close + 1;
    if (j < n && toks[j].text == "(") {
      const int pc = match_forward(toks, j);
      if (pc < 0) return;
      j = pc + 1;
    }
    while (j < n && toks[j].text != "{" && toks[j].text != ";" && toks[j].text != ")")
      ++j;
    if (j >= n || toks[j].text != "{") return;
    const int body_close = match_forward(toks, j);
    if (body_close < 0) return;
    if (!range_has_exception_barrier(toks, j, body_close)) {
      out->push_back({ctx.path, toks[arg].line, "thread-entry-exception-barrier",
                      "thread entry lambda has no try/catch storing into an "
                      "exception_ptr; an escaping exception is std::terminate"});
    }
    return;
  }

  // Named lambda local.
  if (is_ident(toks[arg]) &&
      ctx.syms.lambdas_without_barrier.count(toks[arg].text) > 0) {
    out->push_back({ctx.path, toks[arg].line, "thread-entry-exception-barrier",
                    "thread entry '" + toks[arg].text +
                        "' has no try/catch storing into an exception_ptr; an "
                        "escaping exception is std::terminate"});
  }
  // lambdas_with_barrier or unresolvable (fn pointer, bind, member fn): quiet.
}

void rule_thread_entry_barrier(const RuleContext& ctx, std::vector<Diagnostic>* out) {
  if (!in_src(ctx.path)) return;
  const std::vector<Token>& toks = ctx.toks;
  const int n = static_cast<int>(toks.size());

  for (int i = 0; i < n; ++i) {
    // std::thread NAME(entry, ...) / std::thread(entry, ...).
    if (toks[i].text == "thread" && i >= 2 && toks[i - 1].text == "::" &&
        toks[i - 2].text == "std") {
      int j = i + 1;
      if (j < n && is_ident(toks[j])) ++j;  // named variable
      if (j < n && (toks[j].text == "(" || toks[j].text == "{")) {
        // Closing of vector<std::thread> etc. never parses as a call here.
        check_entry_arg(ctx, j + 1, out);
      }
      continue;
    }

    // POOL.emplace_back(entry, ...) / POOL.push_back(std::thread(entry)).
    if ((toks[i].text == "emplace_back" || toks[i].text == "push_back") && i > 1 &&
        (toks[i - 1].text == "." || toks[i - 1].text == "->") &&
        ctx.syms.thread_pools.count(toks[i - 2].text) > 0 && i + 1 < n &&
        toks[i + 1].text == "(") {
      int arg = i + 2;
      // Unwrap push_back(std::thread(entry, ...)).
      if (arg + 3 < n && toks[arg].text == "std" && toks[arg + 1].text == "::" &&
          toks[arg + 2].text == "thread" &&
          (toks[arg + 3].text == "(" || toks[arg + 3].text == "{"))
        arg += 4;
      check_entry_arg(ctx, arg, out);
    }
  }
}

}  // namespace

void detail::register_concurrency_rules(std::vector<Rule>& rules) {
  rules.push_back({"atomic-explicit-order", &rule_atomic_order});
  rules.push_back({"blocking-under-lock", &rule_blocking_under_lock});
  rules.push_back({"unchecked-syscall", &rule_unchecked_syscall});
  rules.push_back({"thread-entry-exception-barrier", &rule_thread_entry_barrier});
}

}  // namespace mpcf::lint
