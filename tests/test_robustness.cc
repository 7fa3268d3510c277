/**
 * @file
 * Tests for the robustness layer: thread-pool failure semantics and
 * cooperative cancellation, through the simulator and the sweep.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workload.hh"
#include "util/cancellation.hh"
#include "util/threadpool.hh"

using namespace replay;
using sim::Machine;
using sim::SimConfig;

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

TEST(ThreadPool, CooperativeJobsObserveCancellation)
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

// ---------------------------------------------------------------------
// Cancellation tokens and deadlines
// ---------------------------------------------------------------------

TEST(Cancellation, NullTokenNeverStops)
{
    const CancelToken token;
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.expired());
    EXPECT_FALSE(token.stopRequested());
    EXPECT_NO_THROW(token.throwIfStopped("noop"));
}

TEST(Cancellation, CancelTripsEveryToken)
{
    CancelSource source;
    const CancelToken a = source.token();
    const CancelToken b = source.token();
    EXPECT_FALSE(a.stopRequested());
    source.cancel();
    EXPECT_TRUE(a.cancelled());
    EXPECT_TRUE(b.cancelled());
    EXPECT_THROW(a.throwIfStopped("work"), CancelledError);
}

TEST(Cancellation, DeadlineExpiresThroughTheToken)
{
    CancelSource source;
    const CancelToken token = source.token();
    source.setDeadlineAfter(std::chrono::milliseconds(1));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(token.expired());
    EXPECT_FALSE(token.cancelled());    // deadline, not cancel
    try {
        token.throwIfStopped("task");
        FAIL() << "deadline did not throw";
    } catch (const CancelledError &e) {
        EXPECT_NE(std::string(e.what()).find("deadline"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Cancellation and deadlines through the simulator and sweep
// ---------------------------------------------------------------------

TEST(SimCancellation, CancelledTokenAbortsAtTheNextCheckpoint)
{
    CancelSource source;
    source.cancel();
    SimConfig cfg = SimConfig::make(Machine::IC);
    cfg.maxInsts = 20000;       // conventional path: 1 record per loop
    cfg.cancel = source.token();

    auto src = trace::findWorkload("gzip").openTrace(0, cfg.maxInsts);
    sim::Simulator simulator(cfg);
    EXPECT_THROW((void)simulator.run(*src), CancelledError);
}

TEST(SweepWatchdog, StalledTaskHitsDeadlineWithCellDiagnostic)
{
    sim::SweepCell cell;
    cell.workload = &trace::findWorkload("gzip");
    cell.cfg = SimConfig::make(Machine::RPO);
    cell.cfg.fault.seed = 11;
    cell.cfg.fault.stallRate = 1.0;     // stall at every checkpoint
    cell.cfg.fault.stallMillis = 10;

    sim::SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = 4096;
    opts.warmup = false;
    opts.taskDeadlineMillis = 1;

    try {
        (void)sim::runSweep({cell}, opts);
        FAIL() << "stalled sweep did not abort";
    } catch (const CancelledError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("sweep task [workload=gzip"),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find("deadline"), std::string::npos) << what;
    }
}
