// Phase tracing for the cluster-layer pipeline: scoped spans tagged with a
// phase (exchange/interior/halo/update/reduce/dump), a rank, and the worker
// thread that executed them. Spans aggregate into per-rank/per-phase wall
// clock totals and export as chrome://tracing JSON (one "pid" per rank, one
// "tid" per worker thread), so the halo/interior overlap of the step graph
// can be inspected visually. Recording is thread-safe; a disabled tracer costs one
// relaxed atomic load per span.
#pragma once

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "common/thread_safety.h"

namespace mpcf::perf {

enum class TracePhase : int {
  kExchange = 0,  ///< halo pack + send (and recv/unpack on the staged oracle)
  kInterior,      ///< RHS of interior blocks (runs while halos are in flight)
  kHalo,          ///< halo drain (recv + unpack) and RHS of halo blocks
  kUpdate,        ///< low-storage RK update
  kReduce,        ///< DT reduction (per-rank SOS + allreduce)
  kDump,          ///< compressed data dump
  kCheckpoint,    ///< checkpoint save / restart recovery (one span per
                  ///< recovery attempt, so skipped-corrupt-file events are
                  ///< visible in the trace)
  kWait,          ///< blocked inside the transport (recv with no message
                  ///< staged) — on the shm backend this is real cross-process
                  ///< wait time, visible as gaps in the overlap pipeline
  kLab,           ///< ghost-lab assembly of one block (fused step tasks; the
                  ///< staged oracle folds lab time into kRhs)
  kRhs,           ///< RHS evaluation of one assembled lab (fused step tasks;
                  ///< the staged oracle's lab + RHS sweep of one rank)
};
constexpr int kNumTracePhases = 10;

[[nodiscard]] const char* trace_phase_name(TracePhase p);

struct TraceEvent {
  TracePhase phase;
  int rank;       ///< chrome "pid"
  int tid;        ///< chrome "tid": dense id of the recording thread
  double t0_us;   ///< start, microseconds since the tracer epoch
  double dur_us;  ///< duration in microseconds
};

class Tracer {
 public:
  // order: relaxed — enabled_ is an on/off toggle with no data attached;
  // spans racing with enable() may or may not record, both are valid.
  void enable(bool on) noexcept { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const noexcept {
    // order: relaxed — see enable().
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Microseconds since the tracer epoch (construction or last clear()).
  [[nodiscard]] double now_us() const;

  /// Appends one completed span (thread-safe; no-op while disabled).
  void record(TracePhase phase, int rank, double t0_us, double dur_us);

  /// Drops all recorded events and restarts the epoch.
  void clear();

  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Aggregate seconds spent in `phase`, summed over spans of `rank`
  /// (rank < 0: all ranks). Concurrent spans count their full durations.
  [[nodiscard]] double total_seconds(TracePhase phase, int rank = -1) const;

  /// chrome://tracing "traceEvents" JSON (complete-event format).
  [[nodiscard]] std::string chrome_json() const;
  void write_chrome_json(const std::string& path) const;

 private:
  using clock = std::chrono::steady_clock;

  std::atomic<bool> enabled_{false};
  mutable Mutex mu_;
  clock::time_point epoch_ MPCF_GUARDED_BY(mu_) = clock::now();
  std::vector<TraceEvent> events_ MPCF_GUARDED_BY(mu_);
};

/// RAII span: samples the tracer clock on construction and records the
/// elapsed interval on destruction. Cheap when the tracer is disabled.
class TraceSpan {
 public:
  TraceSpan(Tracer& tracer, TracePhase phase, int rank)
      : tracer_(tracer.enabled() ? &tracer : nullptr), phase_(phase), rank_(rank),
        t0_us_(tracer_ ? tracer.now_us() : 0.0) {}
  ~TraceSpan() {
    if (tracer_) tracer_->record(phase_, rank_, t0_us_, tracer_->now_us() - t0_us_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  Tracer* tracer_;
  TracePhase phase_;
  int rank_;
  double t0_us_;
};

}  // namespace mpcf::perf
