/**
 * @file
 * Shot-level parallelism utilities: a process-wide thread pool and a
 * deterministically chunked parallel-for.
 *
 * The Monte-Carlo engine forks an independent RNG stream per shot, so
 * shots (and whole workloads) are embarrassingly parallel.  The only
 * subtlety is determinism: parallelFor() always partitions an index
 * range into chunks whose boundaries depend only on the range and the
 * requested chunk count — never on scheduling — so callers that keep
 * one accumulator per chunk and merge them in chunk order produce
 * bit-identical results for any pool size, including serial runs.
 *
 * The pool is re-entrancy safe: a parallelFor() issued from inside a
 * pool task runs inline on the calling thread, so nested parallel
 * regions (evaluateSuite over workloads, each running parallel shots)
 * degrade gracefully instead of deadlocking.
 */

#ifndef ADAPT_COMMON_PARALLEL_HH
#define ADAPT_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <memory>

namespace adapt
{

/**
 * Worker count the process uses when a caller asks for "auto":
 * the ADAPT_NUM_THREADS environment variable if set to a positive
 * integer, otherwise std::thread::hardware_concurrency() (at least 1).
 */
int defaultThreads();

/** Map a user thread count to an effective one: values >= 1 are taken
 *  verbatim, anything else (0, negative) means defaultThreads(). */
int resolveThreads(int requested);

/**
 * Fixed-size pool of worker threads executing indexed task batches.
 *
 * run() is the only entry point: it executes tasks 0..n-1 across the
 * workers plus the calling thread and blocks until all complete.
 */
class ThreadPool
{
  public:
    /** @param num_threads Total executors including the caller, so
     *  num_threads - 1 workers are spawned; clamped to >= 1. */
    explicit ThreadPool(int num_threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lazily constructed process-wide pool of defaultThreads()
     *  executors. */
    static ThreadPool &global();

    /** Total executors (workers + the calling thread). */
    int size() const;

    /**
     * Execute task(0..num_tasks-1), blocking until every task has
     * finished.  Tasks are claimed dynamically, so the mapping of
     * task index to thread is unspecified — determinism must come
     * from the tasks themselves.  The first exception thrown by any
     * task is rethrown here after the batch drains.  Calls issued
     * from inside a running task execute inline on this thread.
     */
    void run(int num_tasks, const std::function<void(int)> &task);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * Chunked parallel loop over [begin, end).
 *
 * The range is split into min(max_chunks, end - begin) contiguous
 * chunks of near-equal size and body(chunk_begin, chunk_end,
 * chunk_index) runs for each on the global pool.  Chunk boundaries
 * are a pure function of (begin, end, max_chunks): per-chunk
 * accumulators merged in chunk-index order therefore yield identical
 * results for every pool size.
 *
 * When max_chunks resolves to 1 the body runs inline as one chunk
 * and every parallel region nested inside it runs inline too, so
 * threads=1 means one thread end to end.
 *
 * @param max_chunks Desired parallelism; <= 0 means defaultThreads().
 */
void parallelFor(int64_t begin, int64_t end, int max_chunks,
                 const std::function<void(int64_t, int64_t, int)> &body);

} // namespace adapt

#endif // ADAPT_COMMON_PARALLEL_HH
