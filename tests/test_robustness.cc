/**
 * @file
 * Tests for the thread pool's failure semantics: a throwing job or
 * iteration surfaces its exception to the caller instead of
 * terminating the process, and flips the flag cooperative jobs poll.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>

#include "util/threadpool.hh"

using namespace replay;

// ---------------------------------------------------------------------
// ThreadPool / parallelFor failure semantics
// ---------------------------------------------------------------------

TEST(ParallelFor, ThrowingIterationRethrowsInsteadOfTerminating)
{
    std::atomic<unsigned> executed{0};
    bool caught = false;
    try {
        parallelFor(4, 64, [&](size_t i) {
            if (i == 7)
                throw std::runtime_error("iteration 7 failed");
            ++executed;
        });
    } catch (const std::runtime_error &e) {
        caught = true;
        EXPECT_STREQ(e.what(), "iteration 7 failed");
    }
    EXPECT_TRUE(caught);
    // The failure cancels queued iterations: strictly fewer than all
    // the surviving 63 may run, never more.
    EXPECT_LE(executed.load(), 63u);
}

TEST(ParallelFor, SerialPathPropagatesTheSameWay)
{
    EXPECT_THROW(
        parallelFor(1, 8,
                    [](size_t i) {
                        if (i == 3)
                            throw std::runtime_error("serial fail");
                    }),
        std::runtime_error);
}

TEST(ThreadPool, WaitRethrowsFirstErrorAndPoolStaysUsable)
{
    ThreadPool pool(2);
    pool.submit([] { throw std::logic_error("job error"); });
    EXPECT_THROW(pool.wait(), std::logic_error);
    EXPECT_FALSE(pool.cancelled());     // reset by the failed wait()

    // The pool survives a failed batch: later jobs run normally.
    std::atomic<bool> ran{false};
    pool.submit([&] { ran = true; });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_TRUE(ran.load());
}

TEST(ThreadPool, CooperativeJobsObserveTheFailureFlag)
{
    ThreadPool pool(2);
    std::atomic<unsigned> skipped{0};
    pool.submit([&] { throw std::runtime_error("first"); });
    // Give the failure time to land, then submit cooperative jobs.
    pool.submit([&] {
        for (unsigned spin = 0; spin < 1000 && !pool.cancelled(); ++spin)
            std::this_thread::yield();
        if (pool.cancelled())
            ++skipped;
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_LE(skipped.load(), 1u);
}
