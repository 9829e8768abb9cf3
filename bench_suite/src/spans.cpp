#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

namespace mpcf::bench_suite {
namespace {

std::atomic<bool> g_on{false};
std::atomic<long> g_next_id{0};
std::atomic<int> g_next_tid{0};
std::mutex g_mu;
// One buffer per recording thread; a deque so growth never moves a buffer
// another thread is appending to. The mutex guards only the container.
std::deque<std::vector<SpanEvent>> g_buffers;
std::vector<SpanEvent> g_added;

struct ThreadState {
  std::vector<SpanEvent>* buf = nullptr;
  int tid = -1;
  long current = -1;
};
thread_local ThreadState t_state;

ThreadState& thread_state() {
  if (t_state.buf == nullptr) {
    const std::lock_guard<std::mutex> lock(g_mu);
    g_buffers.emplace_back();
    t_state.buf = &g_buffers.back();
    t_state.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_state;
}

}  // namespace

const char* layer_name(Layer l) {
  static const char* const kNames[kNumLayers] = {"kernels",     "grid", "core",
                                                 "cluster",     "compression",
                                                 "io",          "scenario",
                                                 "serve",       "suite"};
  return kNames[static_cast<int>(l)];
}

double now_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void set_tracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool tracing() { return g_on.load(std::memory_order_relaxed); }

Span::Span(Layer layer, const char* name, long parent) : layer_(layer), name_(name) {
  if (!tracing()) return;
  ThreadState& st = thread_state();
  id_ = g_next_id.fetch_add(1, std::memory_order_relaxed);
  parent_ = parent == -2 ? st.current : parent;
  saved_current_ = st.current;
  st.current = id_;
  t0_us_ = now_us();
}

Span::~Span() {
  if (id_ < 0) return;
  const double t1 = now_us();
  ThreadState& st = thread_state();
  st.buf->push_back(SpanEvent{layer_, name_, 0, st.tid, id_, parent_, t0_us_, t1 - t0_us_});
  st.current = saved_current_;
}

void add_span(SpanEvent e) {
  const std::lock_guard<std::mutex> lock(g_mu);
  g_added.push_back(std::move(e));
}

std::vector<SpanEvent> collect_spans() {
  const std::lock_guard<std::mutex> lock(g_mu);
  std::vector<SpanEvent> all(g_added);
  for (const auto& b : g_buffers) all.insert(all.end(), b.begin(), b.end());
  std::sort(all.begin(), all.end(),
            [](const SpanEvent& a, const SpanEvent& b) { return a.t0_us < b.t0_us; });
  return all;
}

std::string spans_to_text(const std::vector<SpanEvent>& spans) {
  std::string out;
  char line[256];
  for (const SpanEvent& e : spans) {
    std::snprintf(line, sizeof(line), "%d %d %ld %ld %.3f %.3f ", static_cast<int>(e.layer),
                  e.tid, e.id, e.parent, e.t0_us, e.dur_us);
    out += line;
    out += e.name;
    out += '\n';
  }
  return out;
}

std::vector<SpanEvent> spans_from_text(const std::string& text, int pid) {
  std::vector<SpanEvent> spans;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    SpanEvent e;
    int layer = 0, consumed = 0;
    if (std::sscanf(line.c_str(), "%d %d %ld %ld %lf %lf %n", &layer, &e.tid, &e.id,
                    &e.parent, &e.t0_us, &e.dur_us, &consumed) < 6 ||
        layer < 0 || layer >= kNumLayers)
      continue;
    e.layer = static_cast<Layer>(layer);
    e.name = line.substr(static_cast<std::size_t>(consumed));
    e.pid = pid;
    spans.push_back(std::move(e));
  }
  return spans;
}

std::string chrome_trace_json(const std::vector<SpanEvent>& spans) {
  double t0 = spans.empty() ? 0.0 : spans.front().t0_us;
  std::set<int> pids;
  for (const SpanEvent& e : spans) {
    t0 = std::min(t0, e.t0_us);
    pids.insert(e.pid);
  }
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  for (const int pid : pids) {
    os << (first ? "" : ",\n") << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
       << ",\"args\":{\"name\":\""
       << (pid == 0 ? std::string("bench_suite") : "rank worker " + std::to_string(pid))
       << "\"}}";
    first = false;
  }
  char buf[512];
  for (const SpanEvent& e : spans) {
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":%d,\"tid\":%d,\"args\":{\"id\":%ld,\"parent\":%ld}}",
                  first ? "" : ",\n", e.name.c_str(), layer_name(e.layer), e.t0_us - t0,
                  e.dur_us, e.pid, e.tid, e.id, e.parent);
    os << buf;
    first = false;
  }
  os << "\n]}\n";
  return os.str();
}

std::vector<LayerSelf> self_time_by_layer(const std::vector<SpanEvent>& spans) {
  std::map<std::pair<int, long>, std::vector<std::pair<double, double>>> children;
  for (const SpanEvent& e : spans)
    if (e.parent >= 0)
      children[{e.pid, e.parent}].emplace_back(e.t0_us, e.t0_us + e.dur_us);

  std::vector<LayerSelf> out(kNumLayers);
  for (const SpanEvent& e : spans) {
    LayerSelf& l = out[static_cast<int>(e.layer)];
    ++l.spans;
    double covered = 0;
    const auto it = children.find({e.pid, e.id});
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      const double lo = e.t0_us, hi = e.t0_us + e.dur_us;
      double cur_a = 0, cur_b = -1;
      for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, hi);
        if (b <= a) continue;
        if (a > cur_b) {
          if (cur_b > cur_a) covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      if (cur_b > cur_a) covered += cur_b - cur_a;
    }
    l.self_s += std::max(0.0, e.dur_us - covered) * 1e-6;
  }
  return out;
}

}  // namespace mpcf::bench_suite
