// Figure 7 reproduction: wall-clock distribution of a production step across
// the kernels (left pie: RHS ~89%, with DT, UP and IO_WAVELET sharing the
// rest; dumps cost ~4% at every-100-steps cadence) and within a dump (right
// pie: 92% parallel I/O, 6% encoding, 2% wavelet transform in the paper —
// on a local filesystem the write share is smaller, but encoding must
// dominate the transform).
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "compression/pipeline.h"
#include "io/compressed_file.h"

using namespace mpcf;

int main() {
  Simulation::Params params;
  params.extent = 2e-3;
  Simulation sim(6, 6, 6, 8, params);  // 48^3
  mpcf::bench::init_cloud_state(sim.grid(), 10);

  const int steps = 20, dump_every = 10;
  double t_fwt_dec = 0, t_enc = 0, t_io = 0;
  for (int s = 0; s < steps; ++s) {
    sim.step();
    if ((s + 1) % dump_every == 0) {
      for (int pass = 0; pass < 2; ++pass) {
        compression::CompressionParams cp;
        if (pass == 0) {
          cp.quantity = Q_G;
          cp.eps = 2.3e-3f;
        } else {
          cp.derive_pressure = true;
          cp.eps = 1e5f;
        }
        compression::PipelineStats stats;
        const auto cq = compression::compress_quantity_pipelined(sim.grid(), cp, &stats);
        for (const auto& t : stats.worker_times) {
          t_fwt_dec += t.dec;
          t_enc += t.enc;
        }
        Timer t;
        const std::string path = "/tmp/mpcf_fig7_dump.cq";
        io::write_compressed(path, cq);
        t_io += t.seconds();
        std::remove(path.c_str());
      }
    }
  }

  const StepProfile& p = sim.profile();
  const double io_total = t_fwt_dec + t_enc + t_io;
  const double total = p.total() + io_total;

  std::puts("=== Figure 7 (left): time distribution of the simulation ===");
  std::printf("RHS         %5.1f%%\n", 100 * p.rhs / total);
  std::printf("DT          %5.1f%%\n", 100 * p.dt / total);
  std::printf("UP          %5.1f%%\n", 100 * p.up / total);
  std::printf("IO_WAVELET  %5.1f%%   (dumps every %d steps)\n", 100 * io_total / total,
              dump_every);

  std::puts("\n=== Figure 7 (right): inside IO_WAVELET ===");
  std::printf("FWT+decimation  %5.1f%%\n", 100 * t_fwt_dec / io_total);
  std::printf("encoding        %5.1f%%\n", 100 * t_enc / io_total);
  std::printf("file write      %5.1f%%\n", 100 * t_io / io_total);

  std::puts("\npaper: RHS ~89% of the step; dumps <= 4-5% of total time;");
  std::puts("within a dump 92% I/O / 6% encoding / 2% FWT on GPFS (a local FS");
  std::puts("shifts the balance toward encoding, the compute shares remain).");
  return 0;
}
