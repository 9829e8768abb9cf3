// Tests of the chunk loops (common/chunk_loop.h): for_each_chunk runs every
// chunk once on thread_count() workers, and in the ordered loop every
// streamed save runs, results are consumed in chunk order, one consume at a
// time, never more than the window of results is alive, and a failing
// encode or consume at any chunk position ends the call with the lowest
// failing chunk's exception instead of a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/chunk_loop.h"
#include "omp_threads.h"

namespace mpcf {
namespace {

/// A result that counts how many of its kind are alive, and the most that
/// ever were.
struct Live {
  static std::atomic<int> alive;
  static std::atomic<int> most;
  int chunk;
  explicit Live(int c) : chunk(c) {
    const int now = alive.fetch_add(1) + 1;
    int seen = most.load();
    while (now > seen && !most.compare_exchange_weak(seen, now)) {
    }
  }
  ~Live() { alive.fetch_sub(1); }
  Live(const Live&) = delete;
  Live& operator=(const Live&) = delete;
};
std::atomic<int> Live::alive{0};
std::atomic<int> Live::most{0};

/// Uneven encode costs, so chunks finish out of order.
void busy(int c) {
  std::this_thread::sleep_for(std::chrono::microseconds(50 * ((c * 37) % 7)));
}

TEST(Chunks, EveryChunkRunsOnceOnThreadCountWorkers) {
  // The loop's width is the thread budget, capped at the chunk count; the
  // calling thread is worker 0.
  for (const int threads : {1, 3, 8})
    for (const int chunks : {0, 2, 100}) {
      SCOPED_TRACE(testing::Message() << threads << " threads, " << chunks << " chunks");
      const test::Threads scope(threads);
      EXPECT_EQ(thread_count(), threads);
      const int workers = chunk_workers(chunks);
      EXPECT_EQ(workers, std::max(1, std::min(threads, chunks)));
      std::vector<std::atomic<int>> runs(static_cast<std::size_t>(chunks));
      std::vector<std::atomic<int>> by(static_cast<std::size_t>(workers));
      const std::thread::id caller = std::this_thread::get_id();
      std::atomic<bool> worker0_elsewhere{false};
      for_each_chunk(chunks, [&](int c, int w) {
        runs[static_cast<std::size_t>(c)].fetch_add(1);
        by[static_cast<std::size_t>(w)].fetch_add(1);
        if (w == 0 && std::this_thread::get_id() != caller) worker0_elsewhere = true;
      });
      for (const auto& r : runs) EXPECT_EQ(r.load(), 1);
      int total = 0;
      for (const auto& n : by) total += n.load();
      EXPECT_EQ(total, chunks);
      EXPECT_FALSE(worker0_elsewhere.load());
    }
}

TEST(OrderedChunks, ConsumesInChunkOrderWithinTheWindow) {
  for (const int workers : {1, 2, 3, 8})
    for (const int chunks : {0, 1, 5, 37, 100}) {
      SCOPED_TRACE(testing::Message() << workers << " workers, " << chunks << " chunks");
      const test::Threads scope(workers);
      const int window = chunk_window(chunk_workers(chunks));
      EXPECT_EQ(window, 2 * std::max(1, std::min(workers, chunks)));
      Live::most = 0;
      std::vector<std::unique_ptr<Live>> slots(static_cast<std::size_t>(window));
      std::vector<int> order;
      std::atomic<int> consuming{0};
      bool overlapped = false;
      for_each_chunk_ordered(
          chunks,
          [&](int c, int /*worker*/) {
            auto result = std::make_unique<Live>(c);
            busy(c);
            slots[static_cast<std::size_t>(c % window)] = std::move(result);
          },
          [&](int c) {
            if (consuming.fetch_add(1) != 0) overlapped = true;
            std::unique_ptr<Live> result = std::move(slots[static_cast<std::size_t>(c % window)]);
            if (result == nullptr || result->chunk != c) overlapped = true;
            order.push_back(c);
            result.reset();
            consuming.fetch_sub(1);
          });
      std::vector<int> expected(static_cast<std::size_t>(chunks));
      for (int c = 0; c < chunks; ++c) expected[static_cast<std::size_t>(c)] = c;
      EXPECT_EQ(order, expected);
      EXPECT_FALSE(overlapped) << "two consumes at once, or a slot overwritten while alive";
      EXPECT_EQ(Live::alive.load(), 0);
      EXPECT_LE(Live::most.load(), window);
    }
}

TEST(OrderedChunks, TheWindowHoldsBackEncodesUntilTheFirstChunkIsConsumed) {
  // Chunk 0 is slow: the other workers may run ahead by the window, never
  // further, until it is consumed.
  const int workers = 4;
  const test::Threads scope(workers);
  const int window = chunk_window(workers);
  std::atomic<int> started{0};
  int started_before_first = 0;
  for_each_chunk_ordered(
      64,
      [&](int c, int /*worker*/) {
        started.fetch_add(1);
        if (c == 0) std::this_thread::sleep_for(std::chrono::milliseconds(50));
      },
      [&](int c) {
        if (c == 0) started_before_first = started.load();
      });
  EXPECT_EQ(started.load(), 64);
  EXPECT_LE(started_before_first, window);
  EXPECT_GE(started_before_first, 1);
}

enum class Step { kEncode, kConsume };

/// Runs 40 chunks on `workers` workers where chunk `a` fails in step `sa`
/// and chunk `b` in step `sb` (b < 0: only a fails). Chunk a's encode waits a
/// little first, so the other workers fill the window and block on it.
/// Returns the message of the exception the call ends with; `consumed`
/// receives the chunks consumed.
std::string run_failing(int workers, int a, Step sa, int b, Step sb, std::vector<int>& consumed) {
  const auto fails = [&](int c, Step s) { return (c == a && s == sa) || (c == b && s == sb); };
  consumed.clear();
  const test::Threads scope(workers);
  try {
    for_each_chunk_ordered(
        40,
        [&](int c, int /*worker*/) {
          if (c == a) std::this_thread::sleep_for(std::chrono::milliseconds(2));
          if (fails(c, Step::kEncode)) throw std::runtime_error("encode " + std::to_string(c));
        },
        [&](int c) {
          if (fails(c, Step::kConsume)) throw std::runtime_error("consume " + std::to_string(c));
          consumed.push_back(c);
        });
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "no exception";
}

TEST(OrderedChunks, AFailureAtAnyChunkEndsWithTheLowestFailingChunk) {
  for (const int workers : {1, 2, 3, 8})
    for (int a = 0; a < 40; ++a)
      for (const Step sa : {Step::kEncode, Step::kConsume}) {
        const std::string name = sa == Step::kEncode ? "encode " : "consume ";
        SCOPED_TRACE(testing::Message() << workers << " workers, " << name << a);
        std::vector<int> consumed;
        std::vector<int> below(static_cast<std::size_t>(a));
        for (int c = 0; c < a; ++c) below[static_cast<std::size_t>(c)] = c;
        // One failing chunk: its exception, every chunk below it consumed,
        // none above.
        EXPECT_EQ(run_failing(workers, a, sa, -1, Step::kEncode, consumed),
                  name + std::to_string(a));
        EXPECT_EQ(consumed, below);
        // A second failure above it, in either step, does not change that.
        if (a + 3 < 40)
          for (const Step sb : {Step::kEncode, Step::kConsume}) {
            EXPECT_EQ(run_failing(workers, a, sa, a + 3, sb, consumed), name + std::to_string(a));
            EXPECT_EQ(consumed, below);
          }
      }
}

}  // namespace
}  // namespace mpcf
