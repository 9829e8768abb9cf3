// JSON output: the one-line result of a run (its last line of stdout), the
// detailed per-run report, and the metric-name lists of BENCHMARK.json.
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "host.h"

namespace mpcf::bench_suite {

[[nodiscard]] std::string jnum(double v);
[[nodiscard]] std::string jstr(const std::string& s);

/// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
[[nodiscard]] std::string result_line(const Result& r);

/// Full report: host header, metrics, extras, sample sets, gates.
[[nodiscard]] std::string report_json(const Options& opt, const Host& host, const Result& r,
                                      const std::string& trace_path);

/// Names listed in the "end_to_end" or "per_layer" array of BENCHMARK.json
/// (a scanner for that one flat file, not a general JSON parser).
[[nodiscard]] std::vector<std::string> benchmark_names(const std::string& json,
                                                       const std::string& section);

/// Gate: the metric names a run emitted are exactly the section's names.
bool check_names(Result& r, const std::string& benchmark_json_path,
                 const std::string& section);

}  // namespace mpcf::bench_suite
