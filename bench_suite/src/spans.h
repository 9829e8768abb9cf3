// Span recorder of the traced run. Spans wrap calls the benchmark makes
// into each layer of the program (the program itself carries no spans):
// name, layer, start, duration, recording thread, and the span that caused
// it. Each thread appends to its own buffer; buffers merge only at export,
// after every parallel region has joined. Times are absolute steady-clock
// microseconds, so spans recorded by the rank-worker processes merge into the
// parent's timeline unchanged (CLOCK_MONOTONIC is system-wide).
#pragma once

#include <string>
#include <vector>

namespace mpcf::bench_suite {

enum class Layer { kKernels, kGrid, kCore, kCluster, kCompression, kIo, kScenario, kServe, kSuite };
constexpr int kNumLayers = 9;

[[nodiscard]] const char* layer_name(Layer l);

struct SpanEvent {
  Layer layer = Layer::kSuite;
  std::string name;
  int pid = 0;      ///< 0 = this process; rank workers use rank + 1
  int tid = 0;      ///< dense per-process thread id
  long id = 0;      ///< unique within pid
  long parent = -1; ///< causing span within the same pid (-1 = root)
  double t0_us = 0;
  double dur_us = 0;
};

/// Absolute steady-clock time in microseconds.
[[nodiscard]] double now_us();

/// Process-wide switch; spans constructed while it is off record nothing.
void set_tracing(bool on);
[[nodiscard]] bool tracing();

/// RAII span. The parent defaults to the innermost open span of the calling
/// thread; pass `parent` explicitly for work a parallel region does on
/// behalf of a span opened on another thread.
class Span {
 public:
  Span(Layer layer, const char* name, long parent = -2);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] long id() const noexcept { return id_; }

 private:
  Layer layer_;
  const char* name_;
  long id_ = -1;
  long parent_ = -1;
  long saved_current_ = -1;
  double t0_us_ = 0;
};

/// Adds a span observed rather than wrapped (worker-process spans, job
/// attempts seen in a status stream).
void add_span(SpanEvent e);

/// Every recorded span, merged across threads. Call only while no other
/// thread is recording.
[[nodiscard]] std::vector<SpanEvent> collect_spans();

/// One line per span, for shipping spans between processes.
[[nodiscard]] std::string spans_to_text(const std::vector<SpanEvent>& spans);
[[nodiscard]] std::vector<SpanEvent> spans_from_text(const std::string& text, int pid);

/// chrome://tracing JSON ("X" complete events; ts relative to the first span).
[[nodiscard]] std::string chrome_trace_json(const std::vector<SpanEvent>& spans);

struct LayerSelf {
  long spans = 0;
  double self_s = 0;  ///< span time not covered by the span's children
};

/// Self time per layer: each span's duration minus the union of its
/// children's intervals (children may run on other threads).
[[nodiscard]] std::vector<LayerSelf> self_time_by_layer(const std::vector<SpanEvent>& spans);

}  // namespace mpcf::bench_suite
