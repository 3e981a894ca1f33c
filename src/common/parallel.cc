#include "common/parallel.hh"

#include "common/env.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace adapt
{

namespace
{

/** True while this thread is executing a pool task batch (worker or
 *  caller); nested run() calls then execute inline. */
thread_local bool tl_executing = false;

/** Marks the calling thread as executing for its lifetime (restoring
 *  the previous state on exit, exceptions included), so every nested
 *  run() inside it stays inline on this thread. */
class SerialScope
{
  public:
    SerialScope() : outer_(tl_executing) { tl_executing = true; }
    ~SerialScope() { tl_executing = outer_; }
    SerialScope(const SerialScope &) = delete;
    SerialScope &operator=(const SerialScope &) = delete;

  private:
    bool outer_;
};

} // namespace

int
defaultThreads()
{
    static const int threads = [] {
        const unsigned hw = std::thread::hardware_concurrency();
        const int fallback = hw >= 1 ? static_cast<int>(hw) : 1;
        // Hardened knob parse: garbage, zero/negative, and overflow
        // values warn once and fall back to the hardware count
        // instead of silently serializing (strtol's 0) or wrapping.
        return static_cast<int>(
            envInt("ADAPT_NUM_THREADS", fallback, 1, 1 << 16));
    }();
    return threads;
}

int
resolveThreads(int requested)
{
    return requested >= 1 ? requested : defaultThreads();
}

struct ThreadPool::Impl
{
    std::vector<std::thread> workers;

    std::mutex mutex;
    std::condition_variable workReady;
    std::condition_variable batchDone;

    // Current batch; guarded by mutex except for the atomic cursor.
    const std::function<void(int)> *task = nullptr;
    int numTasks = 0;
    std::atomic<int> nextTask{0};
    int busyWorkers = 0;
    uint64_t generation = 0;
    bool stopping = false;
    std::exception_ptr firstError;

    /** Claim and run tasks until the batch cursor runs out. */
    void
    drain(const std::function<void(int)> &fn, int n)
    {
        tl_executing = true;
        for (;;) {
            const int i = nextTask.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(mutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
        tl_executing = false;
    }

    void
    workerLoop()
    {
        uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mutex);
        for (;;) {
            workReady.wait(lock, [&] {
                return stopping || generation != seen;
            });
            if (stopping)
                return;
            seen = generation;
            const std::function<void(int)> *fn = task;
            const int n = numTasks;
            lock.unlock();
            drain(*fn, n);
            lock.lock();
            if (--busyWorkers == 0)
                batchDone.notify_all();
        }
    }
};

ThreadPool::ThreadPool(int num_threads) : impl_(std::make_unique<Impl>())
{
    const int workers = std::max(num_threads, 1) - 1;
    impl_->workers.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; i++)
        impl_->workers.emplace_back([this] { impl_->workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
    }
    impl_->workReady.notify_all();
    for (std::thread &worker : impl_->workers)
        worker.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

int
ThreadPool::size() const
{
    return static_cast<int>(impl_->workers.size()) + 1;
}

void
ThreadPool::run(int num_tasks, const std::function<void(int)> &task)
{
    if (num_tasks <= 0)
        return;
    if (num_tasks == 1 || tl_executing || impl_->workers.empty()) {
        // A single task, a nested call (already inside a batch), or
        // a serial pool: run inline — never pay a pool wake for zero
        // parallel work.  Exceptions propagate directly.
        for (int i = 0; i < num_tasks; i++)
            task(i);
        return;
    }

    {
        std::unique_lock<std::mutex> lock(impl_->mutex);
        if (impl_->task != nullptr) {
            // Another thread owns the pool for its own batch; don't
            // queue behind it, just execute inline.
            lock.unlock();
            for (int i = 0; i < num_tasks; i++)
                task(i);
            return;
        }
        impl_->task = &task;
        impl_->numTasks = num_tasks;
        impl_->nextTask.store(0, std::memory_order_relaxed);
        impl_->busyWorkers = static_cast<int>(impl_->workers.size());
        impl_->firstError = nullptr;
        impl_->generation++;
    }
    impl_->workReady.notify_all();

    // The caller is an executor too.
    impl_->drain(task, num_tasks);

    std::unique_lock<std::mutex> lock(impl_->mutex);
    impl_->batchDone.wait(lock, [&] { return impl_->busyWorkers == 0; });
    impl_->task = nullptr;
    if (impl_->firstError)
        std::rethrow_exception(impl_->firstError);
}

void
parallelFor(int64_t begin, int64_t end, int max_chunks,
            const std::function<void(int64_t, int64_t, int)> &body)
{
    const int64_t n = end - begin;
    if (n <= 0)
        return;
    const int threads = resolveThreads(max_chunks);
    if (threads == 1) {
        // A serial request is serial all the way down: nested
        // parallel regions (e.g. a per-job run at threads=0 inside
        // runBatch(..., 1)) stay on this thread too.  A single chunk
        // that only arises from a one-item range under a wider
        // request still runs through the pool, free to fan out.
        const SerialScope serial;
        body(begin, end, 0);
        return;
    }
    const int chunks =
        static_cast<int>(std::min<int64_t>(threads, n));
    const int64_t base = n / chunks;
    const int64_t extra = n % chunks;
    ThreadPool::global().run(chunks, [&](int c) {
        const int64_t lo =
            begin + c * base + std::min<int64_t>(c, extra);
        const int64_t hi = lo + base + (c < extra ? 1 : 0);
        body(lo, hi, c);
    });
}

} // namespace adapt
