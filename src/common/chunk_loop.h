// The one thread runtime of the library (DESIGN.md §1, §5). Every parallel
// loop in src/ runs on workers started here: the step graph
// (core/step_scheduler.cpp) runs its deques on run_workers, the one save
// path (io::save_container, DESIGN.md §8) runs for_each_chunk_ordered, and
// every other loop for_each_chunk. Workers take chunk ids off one shared
// counter, so load balances dynamically over content-dependent chunk costs;
// the caller makes every chunk's output land in a slot of its own (one per
// chunk or per worker, combined in a fixed order), so results never depend
// on which worker ran which chunk.
//
// for_each_chunk runs every chunk and returns once all are done.
// for_each_chunk_ordered is the save's loop, run once, in save_container:
// each chunk's result is consumed (written to the file) in chunk order as
// soon as it and every chunk before it are encoded, and a chunk is handed
// out only while fewer than chunk_window(workers) = 2 x workers chunks are
// encoded or being encoded and not yet consumed. A save thus holds at most
// that many encoded chunks, however large its file and however many ranks'
// plans it streams. The window is a fixed rule, chosen by measurement
// (DESIGN.md §8): on cloud_job's 12.3 MB checkpoint at 4 threads a save
// through it takes 81-87 ms and raises the peak RSS by ~4 MiB, and
// encoding `workers` chunks, writing them and repeating measured 10-15 %
// slower than the window.
//
// Workers are plain std::threads plus the calling thread, started and
// joined per call: no thread outlives a loop, so a forked child runs loops
// of its own.
#pragma once

#include <functional>

namespace mpcf {

/// Workers of every parallel loop opened on this thread:
/// omp_get_max_threads(), the only OpenMP call in src/.
[[nodiscard]] int thread_count();

/// Runs work(w) on workers - 1 new threads and on the calling thread as
/// worker 0, then joins them. work must not throw on a new thread. When a
/// thread fails to start, or worker 0 throws, stop() makes the running
/// workers finish early, and the call fails once they have joined.
void run_workers(int workers, const std::function<void(int)>& work,
                 const std::function<void()>& stop);

/// Workers the chunk loops run for `chunks` chunks: thread_count(), never
/// more than there are chunks, and at least one.
[[nodiscard]] int chunk_workers(int chunks);

/// Runs body(chunk, worker) once for every chunk in [0, chunks), on
/// chunk_workers(chunks) workers with ids [0, workers); the calling thread
/// is worker 0. An exception thrown by a chunk is kept, the other chunks
/// still run, and once every worker has joined the one of the lowest
/// failing chunk id is rethrown, so even the error is schedule-independent.
void for_each_chunk(int chunks, const std::function<void(int, int)>& body);

/// Chunks for_each_chunk_ordered lets be handed out and not yet consumed on
/// `workers` workers: 2 x workers.
[[nodiscard]] int chunk_window(int workers);

/// Runs encode(chunk, worker) for every chunk in [0, chunks) on
/// chunk_workers(chunks) workers, as for_each_chunk does, and
/// consume(chunk) once per chunk, in chunk order, one at a time, as soon as
/// that chunk and every chunk before it are encoded; consume runs on
/// whichever worker finds the next chunk ready. At most
/// W = chunk_window(workers) chunks are handed out and not yet consumed, so
/// chunk c's result may live in slot c % W of the caller's.
///
/// When an encode or a consume throws, no further chunk is handed out and
/// every worker waiting for the window wakes; chunks below the failing one
/// are still consumed, the ones above it are not. Once every worker has
/// joined, the exception of the lowest failing chunk is rethrown, so the
/// error is schedule-independent.
void for_each_chunk_ordered(int chunks, const std::function<void(int, int)>& encode,
                            const std::function<void(int)>& consume);

}  // namespace mpcf
