// Shared pieces of the benchmark: run options, the result a workload
// or probe fills in, and helpers for state hashing, health checks, config
// templates, child processes and memory accounting.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "grid/boundary.h"
#include "grid/grid.h"
#include "stats.h"

namespace mpcf::bench_suite {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool smoke = false;    ///< toy sizes (the bench_suite_smoke test)
  std::string out;       ///< output root; each run cleans its own subdirectory
  std::string suite_dir; ///< bench_suite sources (config templates)
  std::string self;      ///< path of this executable (rank-worker re-exec)
  std::string source_id; ///< content hash of the sources, from run.py
  std::string git_sha;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Gate {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// What one workload or probe reports: the BENCHMARK.json metrics,
/// workload-specific extras outside it, sample sets, correctness gates, and
/// the failed-of-attempted operation count.
struct Result {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::vector<std::pair<std::string, SampleStats>> samples;
  std::vector<Gate> gates;
  long attempted = 0;
  long failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void extra(const std::string& name, double value, const std::string& unit) {
    extras.push_back({name, value, unit});
  }
  void sample(const std::string& name, const std::vector<double>& v) {
    samples.emplace_back(name, SampleStats::of(v));
  }
  bool gate(const std::string& name, bool ok, const std::string& detail = "") {
    gates.push_back({name, ok, detail});
    return ok;
  }
  [[nodiscard]] bool correct() const {
    for (const Gate& g : gates)
      if (!g.ok) return false;
    return true;
  }
};

/// FNV-1a over every cell of the conserved state, blocks in storage order
/// (per-block hashes in parallel, folded in block order: deterministic).
[[nodiscard]] std::uint64_t state_hash(const Grid& g);
[[nodiscard]] std::string hex(std::uint64_t v);
/// FNV-1a of a string, as hex.
[[nodiscard]] std::string text_hash(const std::string& s);

/// The failure signature of a step: non-finite state, or the floor wipe
/// (max pressure at the positivity floor, or no kinetic energy left).
struct Health {
  bool finite = true;
  double max_p = 0;
  double kinetic = 0;
  [[nodiscard]] bool ok(double p_floor) const {
    return finite && max_p > p_floor * 1.001 && kinetic > 0;
  }
  [[nodiscard]] std::string describe() const;
};
[[nodiscard]] Health state_health(const Grid& g, const BoundaryConditions& bc);

/// Cells of a grid given as "bx by bz" blocks of bs^3.
[[nodiscard]] double grid_cells(const std::string& blocks, int bs);

/// Replaces every @KEY@ of the template file with vars[KEY]; throws on a
/// placeholder left unreplaced.
[[nodiscard]] std::string render_template(const std::string& path,
                                          const std::map<std::string, std::string>& vars);

[[nodiscard]] std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& text);
[[nodiscard]] bool same_bytes(const std::string& a, const std::string& b);

/// Peak resident set of this process and of any waited-for descendant, MB.
[[nodiscard]] double peak_rss_mb();

/// Forks/execs argv with extra environment, stdout+stderr to `log_path`,
/// and waits for it, calling `poll` every `poll_ms` while it runs. Stops the
/// child after `timeout_s` (SIGTERM, then SIGKILL). Returns the exit code,
/// 128 + signal for a signalled child.
int run_child(const std::vector<std::string>& argv,
              const std::vector<std::pair<std::string, std::string>>& env,
              const std::string& log_path, double timeout_s,
              const std::function<void()>& poll = {}, int poll_ms = 5);

/// Content hash of this executable: keys the cross-run state-hash cache.
[[nodiscard]] std::string build_id(const std::string& self);

/// Cross-run determinism gate: the first run of a build records the state
/// hash under `key`; every later run with the same key must reproduce it.
/// Returns false on a mismatch and fills `detail`.
bool check_hash_cache(const std::string& cache_path, const std::string& key,
                      const std::string& hash, std::string* detail);

}  // namespace mpcf::bench_suite
