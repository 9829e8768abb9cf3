// The thread budget of one scope. Every parallel loop of the library (the
// step graph, the staged sweeps, DT, the guard, diagnostics, the initial
// conditions, the save path, the dump pipeline and the checkpoint codec)
// reads it through thread_count() (common/chunk_loop.h), which returns
// omp_get_max_threads(), so tests sweep the width through this.
#pragma once

#include <omp.h>

namespace mpcf::test {

/// Sets the OpenMP thread budget for one scope, restoring it on exit.
class Threads {
 public:
  explicit Threads(int n) : saved_(omp_get_max_threads()) { omp_set_num_threads(n); }
  ~Threads() { omp_set_num_threads(saved_); }
  Threads(const Threads&) = delete;
  Threads& operator=(const Threads&) = delete;

 private:
  int saved_;
};

}  // namespace mpcf::test
