#include "common/chunk_loop.h"

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <thread>
#include <vector>

#include "common/thread_safety.h"

namespace mpcf {

namespace {

/// Rethrows the exception of the lowest chunk that has one.
void rethrow_lowest(const std::vector<std::exception_ptr>& errors) {
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace

int thread_count() { return omp_get_max_threads(); }

void run_workers(int workers, const std::function<void(int)>& work,
                 const std::function<void()>& stop) {
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  try {
    for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
    work(0);
  } catch (...) {
    stop();
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
}

int chunk_workers(int chunks) { return std::max(1, std::min(thread_count(), chunks)); }

int chunk_window(int workers) { return 2 * workers; }

void for_each_chunk(int chunks, const std::function<void(int, int)>& body) {
  if (chunks <= 0) return;
  std::atomic<int> next{0};
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(chunks));
  const auto work = [&](int w) {
    for (;;) {
      // order: relaxed — the counter only partitions chunk ids between
      // workers; all cross-thread data handoff happens at thread join.
      const int c = next.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        body(c, w);
      } catch (...) {
        errors[static_cast<std::size_t>(c)] = std::current_exception();
      }
    }
  };
  run_workers(chunk_workers(chunks), work, [&] {
    // order: relaxed — only ends the id handout; join publishes the rest.
    next.store(chunks, std::memory_order_relaxed);
  });
  rethrow_lowest(errors);
}

void for_each_chunk_ordered(int chunks, const std::function<void(int, int)>& encode,
                            const std::function<void(int)>& consume) {
  if (chunks <= 0) return;
  const int workers = chunk_workers(chunks);
  const int window = chunk_window(workers);
  struct State {
    Mutex mu;
    std::condition_variable room;  ///< the window moved on, or the loop stopped
    int next MPCF_GUARDED_BY(mu) = 0;      ///< the next chunk to hand out
    int consumed MPCF_GUARDED_BY(mu) = 0;  ///< chunks consumed, in order
    /// The lowest failing chunk (chunks while none failed): nothing at or
    /// above it is handed out or consumed.
    int stop MPCF_GUARDED_BY(mu) = 0;
    bool consuming MPCF_GUARDED_BY(mu) = false;  ///< a worker runs consume
    std::vector<char> encoded MPCF_GUARDED_BY(mu);
    std::vector<std::exception_ptr> errors MPCF_GUARDED_BY(mu);

    /// Chunk c failed with `e`: keeps it, stops at c, wakes the waiters. A
    /// worker that fails to start stops the loop at 0 with no exception.
    void fail(int c, std::exception_ptr e) MPCF_EXCLUDES(mu) {
      {
        const LockGuard lock(mu);
        if (e) errors[static_cast<std::size_t>(c)] = std::move(e);
        stop = std::min(stop, c);
      }
      room.notify_all();
    }
  } s;
  {
    const LockGuard lock(s.mu);
    s.stop = chunks;
    s.encoded.assign(static_cast<std::size_t>(chunks), 0);
    s.errors.resize(static_cast<std::size_t>(chunks));
  }

  const auto work = [&](int w) {
    for (;;) {
      int c = 0;
      {
        UniqueLock lock(s.mu);
        while (s.next < s.stop && s.next >= s.consumed + window) s.room.wait(lock.std_lock());
        if (s.next >= s.stop) return;
        c = s.next++;
      }
      try {
        encode(c, w);
      } catch (...) {
        s.fail(c, std::current_exception());
        continue;
      }
      {
        const LockGuard lock(s.mu);
        s.encoded[static_cast<std::size_t>(c)] = 1;
        if (s.consuming) continue;  // the consuming worker takes it in turn
        s.consuming = true;
      }
      // This worker consumes every chunk that is ready, in order; it hands
      // the role back under the same lock that shows the next one is not.
      for (;;) {
        int k = 0;
        {
          const LockGuard lock(s.mu);
          if (s.consumed >= s.stop || s.encoded[static_cast<std::size_t>(s.consumed)] == 0) {
            s.consuming = false;
            break;
          }
          k = s.consumed;
        }
        try {
          consume(k);
        } catch (...) {
          s.fail(k, std::current_exception());
        }
        {
          const LockGuard lock(s.mu);
          ++s.consumed;
        }
        s.room.notify_all();
      }
    }
  };
  run_workers(workers, work, [&] { s.fail(0, nullptr); });
  std::vector<std::exception_ptr> errors;
  {
    const LockGuard lock(s.mu);
    errors = std::move(s.errors);
  }
  rethrow_lowest(errors);
}

}  // namespace mpcf
