#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mpcf::bench_suite {
namespace {

std::string metrics_object(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ",";
    s += jstr(ms[i].name) + ":{\"value\":" + jnum(ms[i].value) +
         ",\"unit\":" + jstr(ms[i].unit) + "}";
  }
  return s + "}";
}

}  // namespace

std::string jnum(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string jstr(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string result_line(const Result& r) {
  bool finite = true;
  for (const Metric& m : r.metrics) finite = finite && std::isfinite(m.value);
  return std::string("{\"correct\":") + (r.correct() && finite ? "true" : "false") +
         ",\"attempted\":" + std::to_string(std::max(1L, r.attempted)) +
         ",\"failed\":" + std::to_string(r.failed) + ",\"metrics\":" +
         metrics_object(r.metrics) + "}";
}

std::string report_json(const Options& opt, const Host& host, const Result& r,
                        const std::string& trace_path) {
  std::string s = "{\n  \"schema\": \"mpcf-bench-suite/1\"";
  s += ",\n  \"workload\": " + jstr(opt.workload);
  s += ",\n  \"seed\": " + std::to_string(opt.seed);
  s += ",\n  \"seconds\": " + jnum(opt.seconds);
  s += std::string(",\n  \"trace\": ") + (opt.trace ? "true" : "false");
  s += std::string(",\n  \"smoke\": ") + (opt.smoke ? "true" : "false");
  s += ",\n  \"host\": " + host.json();
  s += std::string(",\n  \"correct\": ") + (r.correct() ? "true" : "false");
  s += ",\n  \"attempted\": " + std::to_string(r.attempted);
  s += ",\n  \"failed\": " + std::to_string(r.failed);
  s += ",\n  \"metrics\": " + metrics_object(r.metrics);
  s += ",\n  \"extras\": " + metrics_object(r.extras);
  s += ",\n  \"samples\": {";
  for (std::size_t i = 0; i < r.samples.size(); ++i) {
    const SampleStats& st = r.samples[i].second;
    s += std::string(i ? "," : "") + "\n    " + jstr(r.samples[i].first) +
         ": {\"n\":" + std::to_string(st.n) + ",\"median\":" + jnum(st.median) +
         ",\"q1\":" + jnum(st.q1) + ",\"q3\":" + jnum(st.q3) + ",\"min\":" + jnum(st.min) +
         ",\"max\":" + jnum(st.max);
    if (st.tail_pct > 0)
      s += ",\"p" + std::to_string(st.tail_pct) + "\":" + jnum(st.tail);
    s += "}";
  }
  s += "\n  },\n  \"gates\": [";
  for (std::size_t i = 0; i < r.gates.size(); ++i)
    s += std::string(i ? "," : "") + "\n    {\"name\":" + jstr(r.gates[i].name) +
         ",\"ok\":" + (r.gates[i].ok ? "true" : "false") +
         ",\"detail\":" + jstr(r.gates[i].detail) + "}";
  s += "\n  ]";
  if (!trace_path.empty()) s += ",\n  \"chrome_trace\": " + jstr(trace_path);
  s += "\n}\n";
  return s;
}

std::vector<std::string> benchmark_names(const std::string& json, const std::string& section) {
  std::vector<std::string> names;
  const std::size_t key = json.find("\"" + section + "\"");
  if (key == std::string::npos) return names;
  const std::size_t open = json.find('[', key);
  if (open == std::string::npos) return names;
  int depth = 0;
  std::size_t end = open;
  for (; end < json.size(); ++end) {
    if (json[end] == '[') ++depth;
    if (json[end] == ']' && --depth == 0) break;
  }
  const std::string body = json.substr(open, end - open);
  const std::string tag = "\"name\"";
  for (std::size_t pos = body.find(tag); pos != std::string::npos;
       pos = body.find(tag, pos + tag.size())) {
    const std::size_t q1 = body.find('"', body.find(':', pos + tag.size()));
    const std::size_t q2 = body.find('"', q1 + 1);
    if (q1 == std::string::npos || q2 == std::string::npos) break;
    names.push_back(body.substr(q1 + 1, q2 - q1 - 1));
  }
  return names;
}

bool check_names(Result& r, const std::string& benchmark_json_path,
                 const std::string& section) {
  std::vector<std::string> want = benchmark_names(read_file(benchmark_json_path), section);
  std::vector<std::string> got;
  for (const Metric& m : r.metrics) got.push_back(m.name);
  std::sort(want.begin(), want.end());
  std::sort(got.begin(), got.end());
  std::string detail;
  for (const std::string& n : want)
    if (!std::binary_search(got.begin(), got.end(), n)) detail += " missing:" + n;
  for (const std::string& n : got)
    if (!std::binary_search(want.begin(), want.end(), n)) detail += " unlisted:" + n;
  return r.gate("metric names match BENCHMARK.json " + section, detail.empty(),
                detail.empty() ? std::to_string(got.size()) + " names" : detail);
}

}  // namespace mpcf::bench_suite
