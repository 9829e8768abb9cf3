// Per-layer probes of the traced run. Each probe drives one layer through
// its public calls at a fixed size, wraps every call in a span, and derives
// the layer's metrics from those calls. The probes are the same on every
// workload, so a layer metric compares like with like between two commits.
#pragma once

#include "common.h"
#include "host.h"

namespace mpcf::bench_suite {

/// kernels, grid, core and trace metrics on a 4x4x4-block grid of 32^3
/// cells (>= 16 blocks per thread at 4 threads), plus the fused == staged
/// replay gate.
void probe_node(const Options& opt, const Host& host, Result& r);

/// compression, io and scenario metrics on the cloud_job instance.
void probe_job_io(const Options& opt, Result& r);

/// cluster metrics from a 2x2x1 rank-worker launch, plus the mp == in-memory
/// oracle gate.
void probe_cluster(const Options& opt, Result& r);

/// serve metrics from a small mpcf-serve drain with one injected crash.
void probe_serve(const Options& opt, Result& r);

}  // namespace mpcf::bench_suite
