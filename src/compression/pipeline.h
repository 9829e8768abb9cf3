// The one compressor (DESIGN.md §13): a pool of workers pulls fixed
// block-range chunks off a shared queue, runs FWT + decimation over each
// chunk's cubes and feeds the result straight into its own entropy-encode
// stage (no barrier between chunks). Each chunk becomes one stream, each
// stream one blob of the dump's container (io/compressed_file.h). A grid's
// chunks are its DumpPlan, the dump payload's blob plan: the node dump and
// every rank of a collective dump save their plans through the one save
// path, io::save_container. Its reference is the codec-free transform
// oracle of tests/test_pipeline.cpp.
//
// Determinism: the chunk → block-range map is a pure function of
// (block_count, worker count), and workers steal *which chunk to process
// next* but never *where its output lands* — so for a fixed worker count
// the emitted file is bitwise-stable run-to-run regardless of scheduling.
// Workers run the chunk loops of common/chunk_loop.h: plain std::threads,
// as many as the caller's thread_count(), the checkpoint codec's width too.
#pragma once

#include <string>
#include <vector>

#include "compression/compressor.h"
#include "io/container.h"

namespace mpcf::compression {

/// Instrumentation of one pipelined dump (Table 4 / Fig. 7-right analogue).
struct PipelineStats {
  int workers = 0;  ///< threads that actually ran
  int chunks = 0;   ///< streams emitted (= chunk count)
  /// Per-worker wall-clock split: dec = FWT+decimate, enc = entropy stage.
  std::vector<WorkerTimes> worker_times;
  double write_seconds = 0;           ///< container writes and commit (dump only)
  std::uint64_t bytes_written = 0;    ///< file size (dump only)
  std::uint64_t uncompressed_bytes = 0;
  std::uint64_t compressed_bytes = 0;
};

/// Number of streams a pipelined dump emits: a pure function of
/// (block_count, workers) so the file layout is schedule-independent —
/// enough chunks per worker that dynamic stealing load-balances the
/// content-dependent encode cost, capped at the block count.
[[nodiscard]] int pipeline_chunk_count(int block_count, int workers);

/// Per-worker state of the dump plans of one save, indexed by the save
/// loop's worker id, for thread_count() workers: a cube buffer,
/// allocated on the worker's first chunk, its clocks and the stream bytes
/// it encoded. The plans of several ranks share one, so a collective save
/// holds one buffer per worker, not per rank.
struct DumpWorkers {
  DumpWorkers();
  std::vector<std::vector<float>> scratch;
  std::vector<WorkerTimes> clocks;
  std::vector<std::uint64_t> stored;
};

/// One grid's dump as a save's blob plan (io/container.h):
/// pipeline_chunk_count(blocks, thread_count()) chunks of
/// consecutive blocks, each one stream under its blocks' global ids (block i
/// under ids[i]): FWT + decimation of its cubes into the save worker's
/// buffer, then the entropy stage. The grid, params and workers must
/// outlive the plan.
[[nodiscard]] io::BlobPlan dump_plan(const Grid& grid, const CompressionParams& params,
                                     std::vector<std::uint32_t> ids, DumpWorkers& workers);

/// Compresses one quantity of the grid through the stage graph on
/// thread_count() workers. The stream partition depends on the
/// worker count, the decoded field does not.
[[nodiscard]] CompressedQuantity compress_quantity_pipelined(
    const Grid& grid, const CompressionParams& params, PipelineStats* stats = nullptr);

/// Full pipelined dump: the grid's one DumpPlan through io::save_container,
/// each stream appended to the container in chunk order as soon as it and
/// every stream before it are encoded, so at most 2 x workers streams are
/// held. The file is the one write_compressed makes of
/// compress_quantity_pipelined's result. Returns the compression rate;
/// fills write/byte accounting into `stats`.
double dump_quantity_pipelined(const Grid& grid, const CompressionParams& params,
                               const std::string& path, PipelineStats* stats = nullptr);

}  // namespace mpcf::compression
