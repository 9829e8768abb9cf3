// The chunk-stealing worker loop shared by the parallel I/O paths: the
// pipelined dump (compression/pipeline.cpp, DESIGN.md §13) and the
// checkpoint codec (io/checkpoint.cpp, DESIGN.md §8). Workers take chunk ids
// off one shared counter, so load balances dynamically over content-
// dependent chunk costs; the caller makes every chunk's output land in a
// slot of its own, so results never depend on which worker ran which chunk.
//
// Workers are plain std::threads plus the calling thread, not an OpenMP
// team: both callers run between the solver's parallel regions, and the
// dump sizes its pool independently of the solver's team.
#pragma once

#include <functional>

namespace mpcf {

/// Workers for_each_chunk runs for `chunks` chunks with `requested` workers:
/// never more than there are chunks, and at least one.
[[nodiscard]] int chunk_workers(int chunks, int requested);

/// Runs body(chunk, worker) once for every chunk in [0, chunks), on
/// chunk_workers(chunks, requested) workers with ids [0, workers); the calling
/// thread is worker 0. An exception thrown by a chunk is kept, the other
/// chunks still run, and once every worker has joined the one of the lowest
/// failing chunk id is rethrown, so even the error is schedule-independent.
void for_each_chunk(int chunks, int requested, const std::function<void(int, int)>& body);

}  // namespace mpcf
