// The OpenMP thread budget of one scope. The save path, the dump pipeline
// and the checkpoint codec take their worker count from
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
