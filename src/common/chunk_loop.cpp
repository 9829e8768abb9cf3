#include "common/chunk_loop.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace mpcf {

int chunk_workers(int chunks, int requested) {
  return std::max(1, std::min(requested, chunks));
}

void for_each_chunk(int chunks, int requested, const std::function<void(int, int)>& body) {
  if (chunks <= 0) return;
  const int workers = chunk_workers(chunks, requested);
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

  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  try {
    for (int w = 1; w < workers; ++w) pool.emplace_back(work, w);
  } catch (...) {
    // A worker failed to start: the running ones stop after their current
    // chunk, and the call fails once they have joined.
    // order: relaxed — only ends the id handout; join publishes the rest.
    next.store(chunks, std::memory_order_relaxed);
    for (auto& t : pool) t.join();
    throw;
  }
  work(0);
  for (auto& t : pool) t.join();
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

}  // namespace mpcf
