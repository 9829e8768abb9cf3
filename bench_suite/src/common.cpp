#include "common.h"

#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "core/diagnostics.h"
#include "core/profile.h"
#include "eos/stiffened_gas.h"
#include "serve/spawn.h"

namespace mpcf::bench_suite {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv_words(const void* data, std::size_t bytes, std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= bytes; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = (h ^ w) * kFnvPrime;
  }
  for (; i < bytes; ++i) h = (h ^ p[i]) * kFnvPrime;
  return h;
}

}  // namespace

std::uint64_t state_hash(const Grid& g) {
  std::vector<std::uint64_t> per_block(static_cast<std::size_t>(g.block_count()));
#pragma omp parallel for schedule(static)
  for (int b = 0; b < g.block_count(); ++b) {
    const Block& blk = g.block(b);
    per_block[b] = fnv_words(blk.data(), blk.cells() * sizeof(Cell));
  }
  return fnv_words(per_block.data(), per_block.size() * sizeof(std::uint64_t));
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string text_hash(const std::string& s) { return hex(fnv_words(s.data(), s.size())); }

std::string Health::describe() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "finite=%s max_p=%.6e Pa kinetic=%.6e J",
                finite ? "yes" : "NO", max_p, kinetic);
  return buf;
}

Health state_health(const Grid& g, const BoundaryConditions& bc) {
  Health h;
  long bad = 0;
#pragma omp parallel for schedule(static) reduction(+ : bad)
  for (int b = 0; b < g.block_count(); ++b) {
    const Block& blk = g.block(b);
    const Real* v = &blk.data()->rho;
    const std::size_t n = blk.cells() * kNumQuantities;
    for (std::size_t k = 0; k < n; ++k) bad += std::isfinite(v[k]) ? 0 : 1;
  }
  h.finite = bad == 0;
  const Diagnostics d =
      compute_diagnostics(g, bc, materials::kVapor.Gamma(), materials::kLiquid.Gamma());
  h.max_p = d.max_p_field;
  h.kinetic = d.kinetic_energy;
  return h;
}

double grid_cells(const std::string& blocks, int bs) {
  int b[3] = {0, 0, 0};
  std::sscanf(blocks.c_str(), "%d %d %d", &b[0], &b[1], &b[2]);
  return static_cast<double>(b[0]) * b[1] * b[2] * bs * bs * bs;
}

std::string render_template(const std::string& path,
                            const std::map<std::string, std::string>& vars) {
  std::string text = read_file(path);
  for (const auto& [key, value] : vars) {
    const std::string tag = "@" + key + "@";
    for (std::size_t pos = text.find(tag); pos != std::string::npos;
         pos = text.find(tag, pos + value.size()))
      text.replace(pos, tag.size(), value);
  }
  const std::size_t at = text.find('@');
  if (at != std::string::npos)
    throw std::runtime_error(path + ": unreplaced placeholder near '" +
                             text.substr(at, 24) + "'");
  return text;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

bool same_bytes(const std::string& a, const std::string& b) {
  return read_file(a) == read_file(b);
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

int run_child(const std::vector<std::string>& argv,
              const std::vector<std::pair<std::string, std::string>>& env,
              const std::string& log_path, double timeout_s,
              const std::function<void()>& poll, int poll_ms) {
  serve::SpawnSpec spec;
  spec.argv = argv;
  spec.env = env;
  spec.log_path = log_path;
  const pid_t pid = serve::spawn_process(spec);
  Timer clock;
  int signals_sent = 0;
  int status = 0;
  while (true) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0 && errno != EINTR) return -1;
    // SIGTERM first: mpcf-run and mpcf-serve turn it into stopping their
    // own children; SIGKILL five seconds later if that did not end it.
    if (signals_sent < 2 && clock.seconds() > timeout_s + 5.0 * signals_sent) {
      std::fprintf(stderr, "bench_suite: %s exceeded %.0f s, stopping it\n", argv[0].c_str(),
                   timeout_s);
      ::kill(pid, signals_sent == 0 ? SIGTERM : SIGKILL);
      ++signals_sent;
    }
    if (poll) poll();
    ::usleep(static_cast<useconds_t>(poll_ms) * 1000);
  }
  if (poll) poll();
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return 128 + WTERMSIG(status);
  return -1;
}

std::string build_id(const std::string& self) {
  const std::string bytes = read_file(self);
  return hex(fnv_words(bytes.data(), bytes.size()));
}

bool check_hash_cache(const std::string& cache_path, const std::string& key,
                      const std::string& hash, std::string* detail) {
  std::ifstream in(cache_path);
  std::string k, h;
  while (in >> k >> h) {
    if (k != key) continue;
    if (h == hash) {
      *detail = "matches an earlier run of this build (" + hash + ")";
      return true;
    }
    *detail = "state hash " + hash + " differs from " + h + " recorded for " + key;
    return false;
  }
  std::ofstream out(cache_path, std::ios::app);
  out << key << ' ' << hash << '\n';
  *detail = "first run of this build with this key; recorded " + hash;
  return true;
}

}  // namespace mpcf::bench_suite
