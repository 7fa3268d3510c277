/**
 * @file
 * A small job-queue thread pool.
 *
 * Workers pull std::function jobs from a mutex-protected deque; wait()
 * blocks until the queue is drained and every in-flight job has
 * finished.  Determinism is the caller's responsibility: jobs must
 * write only to pre-allocated, disjoint result slots (indexed by job,
 * not by completion order) so that results are bit-identical for any
 * worker count.  parallelFor() packages that pattern.
 *
 * Failure semantics: a throwing job must not std::terminate the
 * process (an exception escaping the std::function call in a worker
 * thread would).  The pool captures the *first* exception a job
 * throws, flips the cancelled flag so cooperative jobs can skip their
 * remaining work, and rethrows from the next wait() on the submitting
 * thread — the same place the result would have been consumed.
 * parallelFor() builds on this: one failing iteration cancels the
 * rest and the exception surfaces to the caller, serial and parallel
 * paths alike.
 */

#ifndef REPLAY_UTIL_THREADPOOL_HH
#define REPLAY_UTIL_THREADPOOL_HH

#include <atomic>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "util/sync.hh"

namespace replay {

/** Fixed-size worker pool over a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawn @p threads workers (at least one). */
    explicit ThreadPool(unsigned threads);

    /** Drains the queue, then joins the workers (never throws). */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one job.  Never blocks on job execution. */
    void submit(std::function<void()> job) EXCLUDES(mutex_);

    /**
     * Block until the queue is empty and no job is running.  If any
     * job threw since the last wait(), rethrows the first captured
     * exception (the rest were cancelled or ran to completion).
     */
    void wait() EXCLUDES(mutex_);

    /**
     * A job threw since the last wait(): cooperative jobs poll this
     * and return early instead of doing doomed work.
     */
    bool
    cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    unsigned numThreads() const { return unsigned(workers_.size()); }

  private:
    void workerLoop() EXCLUDES(mutex_);
    void drain() EXCLUDES(mutex_);

    sync::Mutex mutex_{"threadpool", sync::rank::POOL};
    sync::CondVar jobReady_;             ///< workers wait here
    sync::CondVar allDone_;              ///< wait() waits here
    std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
    std::vector<std::thread> workers_;
    unsigned active_ GUARDED_BY(mutex_) = 0;  ///< jobs executing now
    bool stopping_ GUARDED_BY(mutex_) = false;
    std::exception_ptr firstError_ GUARDED_BY(mutex_);
    std::atomic<bool> cancelled_{false};
};

/**
 * Run fn(0) .. fn(count-1) across @p jobs workers and return when all
 * are done.  jobs <= 1 runs inline on the calling thread — the serial
 * and parallel paths execute the same iterations, so any fn that
 * writes only to its own index produces identical results either way.
 *
 * If an iteration throws, iterations not yet started are skipped and
 * the first exception is rethrown to the caller once in-flight work
 * has finished — never std::terminate.  Which iterations were skipped
 * is unspecified; on the error path no result may be consumed anyway.
 */
void parallelFor(unsigned jobs, size_t count,
                 const std::function<void(size_t)> &fn);

} // namespace replay

#endif // REPLAY_UTIL_THREADPOOL_HH
