#include "perf/trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>

#include "common/error.h"

namespace mpcf::perf {

namespace {

Mutex tid_mu;
/// held[id] != 0 while a live thread holds chrome tid `id`.
std::vector<char> held MPCF_GUARDED_BY(tid_mu);

void give_back_tid(const int* tid) {
  const LockGuard lock(tid_mu);
  held[static_cast<std::size_t>(*tid)] = 0;
  delete tid;
}

/// Dense thread ids for the chrome "tid" field (std::thread::id is not
/// JSON-friendly): a thread takes the lowest id no live thread holds at its
/// first record and gives it back when it exits, so workers started per
/// step reuse the lanes of the workers before them.
int current_tid() {
  thread_local const std::unique_ptr<const int, void (*)(const int*)> tid(
      [] {
        const LockGuard lock(tid_mu);
        auto slot = std::find(held.begin(), held.end(), 0);
        if (slot == held.end()) slot = held.insert(held.end(), 0);
        *slot = 1;
        return new int(static_cast<int>(slot - held.begin()));
      }(),
      give_back_tid);
  return *tid;
}

}  // namespace

const char* trace_phase_name(TracePhase p) {
  switch (p) {
    case TracePhase::kExchange: return "exchange";
    case TracePhase::kInterior: return "interior";
    case TracePhase::kHalo: return "halo";
    case TracePhase::kUpdate: return "update";
    case TracePhase::kReduce: return "reduce";
    case TracePhase::kDump: return "dump";
    case TracePhase::kCheckpoint: return "checkpoint";
    case TracePhase::kWait: return "wait";
    case TracePhase::kLab: return "lab";
    case TracePhase::kRhs: return "rhs";
  }
  return "?";
}

double Tracer::now_us() const {
  // epoch_ must be read under mu_: clear() rewrites it concurrently with
  // spans sampling the clock.
  const clock::time_point t = clock::now();
  const LockGuard lock(mu_);
  return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

void Tracer::record(TracePhase phase, int rank, double t0_us, double dur_us) {
  if (!enabled()) return;
  const int tid = current_tid();
  const LockGuard lock(mu_);
  events_.push_back(TraceEvent{phase, rank, tid, t0_us, dur_us});
}

void Tracer::clear() {
  const LockGuard lock(mu_);
  events_.clear();
  epoch_ = clock::now();
}

std::vector<TraceEvent> Tracer::events() const {
  const LockGuard lock(mu_);
  return events_;
}

double Tracer::total_seconds(TracePhase phase, int rank) const {
  const LockGuard lock(mu_);
  double us = 0;
  for (const auto& e : events_)
    if (e.phase == phase && (rank < 0 || e.rank == rank)) us += e.dur_us;
  return us * 1e-6;
}

std::string Tracer::chrome_json() const {
  const std::vector<TraceEvent> evs = events();
  std::string out = "{\"traceEvents\":[\n";
  // Name the per-rank "processes" so the chrome://tracing rows are labeled.
  int max_rank = -1;
  for (const auto& e : evs) max_rank = e.rank > max_rank ? e.rank : max_rank;
  char buf[192];
  for (int r = 0; r <= max_rank; ++r) {
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,"
                  "\"args\":{\"name\":\"rank %d\"}},\n",
                  r, r);
    out += buf;
  }
  for (std::size_t i = 0; i < evs.size(); ++i) {
    const TraceEvent& e = evs[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"cat\":\"mpcf\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":%d,\"tid\":%d}%s\n",
                  trace_phase_name(e.phase), e.t0_us, e.dur_us, e.rank, e.tid,
                  i + 1 == evs.size() ? "" : ",");
    out += buf;
  }
  out += "]}\n";
  return out;
}

void Tracer::write_chrome_json(const std::string& path) const {
  // mpcf-lint: allow(raw-io): dev-tool trace export; a torn trace JSON is harmless, crash-safety not needed
  std::ofstream f(path, std::ios::binary);
  require(f.good(), "Tracer::write_chrome_json: cannot open output file");
  const std::string json = chrome_json();
  f.write(json.data(), static_cast<std::streamsize>(json.size()));
  require(f.good(), "Tracer::write_chrome_json: write failed");
}

}  // namespace mpcf::perf
