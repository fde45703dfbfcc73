/**
 * @file
 * A small reusable fixed-size thread pool for embarrassingly
 * parallel work (the parallel experiment runner, offline analysis).
 *
 * Tasks are submitted as callables and their results retrieved
 * through std::future, so exceptions thrown by a task propagate to
 * whoever calls get(). With zero or one worker the pool degenerates
 * to inline execution at submit() time — same semantics, no threads —
 * which keeps single-job runs bit-for-bit identical to never having
 * had a pool at all.
 */

#ifndef IPREF_UTIL_THREAD_POOL_HH
#define IPREF_UTIL_THREAD_POOL_HH

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/metrics.hh"

namespace ipref
{

/**
 * Process-wide pool telemetry, aggregated across every ThreadPool in
 * the process (ipref_top reads these as "the worker fleet"): queued
 * tasks, tasks currently executing, and per-task wall time.
 */
struct PoolMetricRefs
{
    metrics::Gauge &queueDepth;
    metrics::Gauge &busyWorkers;
    metrics::LatencyHistogram &taskMs;
};

inline PoolMetricRefs &
poolMetrics()
{
    static PoolMetricRefs refs{
        metrics::registry().gauge("ipref_pool_queue_depth",
                                  "tasks waiting in pool queues"),
        metrics::registry().gauge("ipref_pool_busy_workers",
                                  "pool tasks currently executing"),
        metrics::registry().histogram(
            "ipref_pool_task_ms", metrics::defaultMsBounds(),
            "pool task execution wall time (ms)"),
    };
    return refs;
}

/** Fixed-size worker pool; join-on-destruction. */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 or 1 means "run tasks inline on
     *                the submitting thread" (no workers are started).
     */
    explicit ThreadPool(unsigned threads)
    {
        if (threads <= 1)
            return;
        workers_.reserve(threads);
        for (unsigned i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            stopping_ = true;
        }
        cv_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Started worker threads (0 = inline mode). */
    unsigned
    threads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Enqueue @p fn; the returned future yields its result (or
     * rethrows its exception). In inline mode the task runs before
     * submit() returns.
     */
    template <typename F>
    std::future<std::invoke_result_t<F>>
    submit(F &&fn)
    {
        using R = std::invoke_result_t<F>;
        // shared_ptr wrapper: packaged_task is move-only but
        // std::function requires a copyable callable.
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        std::future<R> future = task->get_future();
        if (workers_.empty()) {
            runInstrumented([&] { (*task)(); });
            return future;
        }
        poolMetrics().queueDepth.add(1);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            queue_.emplace_back([task] { (*task)(); });
        }
        cv_.notify_one();
        return future;
    }

  private:
    /** Run @p fn inside the busy-workers gauge + task-latency timer. */
    template <typename Fn>
    static void
    runInstrumented(Fn &&fn)
    {
        PoolMetricRefs &m = poolMetrics();
        m.busyWorkers.add(1);
        auto t0 = std::chrono::steady_clock::now();
        fn();
        std::chrono::duration<double, std::milli> elapsed =
            std::chrono::steady_clock::now() - t0;
        m.taskMs.observe(elapsed.count());
        m.busyWorkers.sub(1);
    }

    void
    workerLoop()
    {
        while (true) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lock(mutex_);
                cv_.wait(lock, [this] {
                    return stopping_ || !queue_.empty();
                });
                if (queue_.empty())
                    return; // stopping, queue drained
                task = std::move(queue_.front());
                queue_.pop_front();
            }
            poolMetrics().queueDepth.sub(1);
            runInstrumented([&] { task(); });
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stopping_ = false;
};

} // namespace ipref

#endif // IPREF_UTIL_THREAD_POOL_HH
