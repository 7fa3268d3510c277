/**
 * @file
 * Tests for the robustness layer: thread-pool failure semantics,
 * cooperative cancellation, the resource governor and its degradation
 * ladder, pressure-aware frame-cache shedding, and the governed
 * counters' order-independent merge.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workload.hh"
#include "util/cancellation.hh"
#include "util/governor.hh"
#include "util/rng.hh"
#include "util/threadpool.hh"

using namespace replay;
using core::Frame;
using core::FrameCache;
using core::FramePtr;
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
// Resource governor
// ---------------------------------------------------------------------

TEST(Governor, DisabledGovernorAlwaysReportsOk)
{
    ResourceGovernor gov;       // budgetBytes = 0
    const unsigned id = gov.registerConsumer("x");
    gov.update(id, 100u << 20);
    EXPECT_FALSE(gov.enabled());
    EXPECT_EQ(gov.pressure(), Pressure::OK);
    EXPECT_FALSE(gov.allocWouldFail());
}

TEST(Governor, PressureLadderFollowsThresholds)
{
    GovernorConfig cfg;
    cfg.budgetBytes = 1000;
    ResourceGovernor gov(cfg);
    const unsigned id = gov.registerConsumer("c");

    gov.update(id, 500);
    EXPECT_EQ(gov.pressure(), Pressure::OK);
    gov.update(id, 700);
    EXPECT_EQ(gov.pressure(), Pressure::SOFT);
    gov.update(id, 850);
    EXPECT_EQ(gov.pressure(), Pressure::HARD);
    gov.update(id, 950);
    EXPECT_EQ(gov.pressure(), Pressure::CRITICAL);
    gov.update(id, 100);
    EXPECT_EQ(gov.pressure(), Pressure::OK);

    EXPECT_EQ(gov.stats().get("soft_transitions"), 1u);
    EXPECT_EQ(gov.stats().get("hard_transitions"), 1u);
    EXPECT_EQ(gov.stats().get("critical_transitions"), 1u);
    EXPECT_EQ(gov.stats().get("ok_returns"), 1u);
    EXPECT_EQ(gov.peakBytes(), 950u);

    // A jump straight to CRITICAL counts once, at the level reached.
    gov.update(id, 990);
    EXPECT_EQ(gov.stats().get("critical_transitions"), 2u);
    EXPECT_EQ(gov.stats().get("soft_transitions"), 1u);
}

TEST(Governor, AbsoluteUpdatesCannotLeak)
{
    GovernorConfig cfg;
    cfg.budgetBytes = 1 << 20;
    ResourceGovernor gov(cfg);
    const unsigned a = gov.registerConsumer("a");
    const unsigned b = gov.registerConsumer("b");

    // Absolute footprint reports: re-reporting the same value is
    // idempotent, unlike charge/release pairs which drift on a missed
    // release.
    for (unsigned i = 0; i < 100; ++i) {
        gov.update(a, 4096);
        gov.update(b, 8192);
    }
    EXPECT_EQ(gov.liveBytes(), 4096u + 8192u);
    EXPECT_EQ(gov.consumerBytes(a), 4096u);
    gov.update(a, 0);
    EXPECT_EQ(gov.liveBytes(), 8192u);
}

TEST(Governor, AllocFailureHookCountsAndReports)
{
    GovernorConfig cfg;
    cfg.budgetBytes = 1 << 20;
    ResourceGovernor gov(cfg);
    unsigned calls = 0;
    gov.setAllocFailureInjector([&calls] { return ++calls % 2 == 0; });
    EXPECT_FALSE(gov.allocWouldFail());
    EXPECT_TRUE(gov.allocWouldFail());
    EXPECT_FALSE(gov.allocWouldFail());
    EXPECT_EQ(gov.stats().get("injected_alloc_fails"), 1u);
}

// ---------------------------------------------------------------------
// Frame-cache shedding under pressure
// ---------------------------------------------------------------------

namespace {

FramePtr
makeFrame(uint32_t pc, unsigned uops)
{
    auto f = std::make_shared<Frame>();
    f->startPc = pc;
    f->pcs = {pc};
    f->body.resize(uops);
    return f;
}

} // namespace

TEST(FrameCachePressure, ShedToBudgetNeverEvictsThePinnedFrame)
{
    FrameCache cache(200);
    cache.insert(makeFrame(0x1000, 50));
    cache.insert(makeFrame(0x2000, 50));
    cache.insert(makeFrame(0x3000, 50));
    ASSERT_EQ(cache.occupiedUops(), 150u);

    // Pin the LRU frame — the one shedding would pick first.
    cache.pin(0x1000);
    const unsigned shed = cache.shedToUops(0);
    EXPECT_EQ(shed, 2u);
    EXPECT_EQ(cache.occupiedUops(), 50u);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_EQ(cache.probe(0x2000), nullptr);

    // Once unpinned, the survivor is sheddable again.
    cache.unpin();
    EXPECT_TRUE(cache.shedLru());
    EXPECT_EQ(cache.occupiedUops(), 0u);
    EXPECT_FALSE(cache.shedLru());      // empty: nothing to shed
}

TEST(FrameCachePressure, InsertNeverEvictsThePinnedFrame)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 90));
    cache.pin(0x1000);
    // The newcomer cannot fit without evicting the pinned frame: it is
    // rejected, and occupancy is untouched.
    cache.insert(makeFrame(0x2000, 20));
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_EQ(cache.occupiedUops(), 90u);
    cache.unpin();
    cache.insert(makeFrame(0x2000, 20));
    EXPECT_NE(cache.probe(0x2000), nullptr);
}

TEST(FrameCachePressure, ChurnWithRandomPressureNeverUnderflows)
{
    // 2000 steps of random insert / invalidate / lookup / shed /
    // shedToUops / pin / unpin.  Occupancy must equal the sum of
    // resident frame sizes at every step (an underflow would wrap the
    // unsigned counter and explode the comparison), and the pinned
    // entry must survive every shed.
    FrameCache cache(256);
    Rng rng(0xC0FFEE);
    std::vector<uint32_t> pcs;
    for (uint32_t pc = 0x1000; pc < 0x1000 + 64 * 16; pc += 16)
        pcs.push_back(pc);
    bool pinned = false;
    uint32_t pinned_pc = 0;

    auto checkConsistent = [&] {
        unsigned resident = 0;
        for (const uint32_t pc : pcs)
            if (auto f = cache.probe(pc))
                resident += f->numUops();
        ASSERT_EQ(cache.occupiedUops(), resident);
        ASSERT_LE(cache.occupiedUops(), cache.capacityUops());
        if (pinned) {
            ASSERT_NE(cache.probe(pinned_pc), nullptr);
        }
    };

    for (unsigned step = 0; step < 2000; ++step) {
        const uint32_t pc = pcs[rng.below(pcs.size())];
        switch (rng.below(8)) {
          case 0:
          case 1:
          case 2:
            if (!pinned || pc != pinned_pc)
                cache.insert(makeFrame(pc, 1 + unsigned(rng.below(48))));
            break;
          case 3:
            if (!pinned || pc != pinned_pc)
                cache.invalidate(pc);
            break;
          case 4:
            (void)cache.lookup(pc);
            break;
          case 5:
            (void)cache.shedLru();
            break;
          case 6:
            // Random pressure transition: shed to a random target.
            (void)cache.shedToUops(unsigned(rng.below(256)));
            break;
          case 7:
            if (pinned) {
                cache.unpin();
                pinned = false;
            } else if (cache.probe(pc)) {
                cache.pin(pc);
                pinned = true;
                pinned_pc = pc;
            }
            break;
        }
        checkConsistent();
    }
}

// ---------------------------------------------------------------------
// End-to-end degradation ladder
// ---------------------------------------------------------------------

namespace {

sim::RunStats
runRpo(const SimConfig &cfg, const char *app = "bzip2")
{
    auto src = trace::findWorkload(app).openTrace(0, cfg.maxInsts);
    sim::Simulator simulator(cfg);
    return simulator.run(*src);
}

} // namespace

TEST(Degradation, TinyBudgetEngagesTheLadderAndStillCompletes)
{
    // The frame pool allocates in 64 KiB arena chunks, so the resident
    // floor for any frame-building run is one chunk; 128 KiB leaves
    // room for roughly two.  That squeezes the run into SOFT
    // repeatedly as the cache grows, sheds, and regrows.
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = 30000;
    cfg.governor.budgetBytes = 128u << 10;

    const sim::RunStats stats = runRpo(cfg);
    EXPECT_GE(stats.x86Retired, cfg.maxInsts);
    EXPECT_GT(stats.govSoftTransitions, 0u)
        << "budget never squeezed the run";
    EXPECT_GT(stats.govShedFrames, 0u);
    EXPECT_GT(stats.govAdmitRejects, 0u);
    // Bounded memory: overshoot is at most one allocation step.
    EXPECT_LT(stats.govPeakBytes, 2 * cfg.governor.budgetBytes);
}

TEST(Degradation, HardPressureRoutesBuildsThroughTheCheapOptimizer)
{
    // 68 KiB puts the one-chunk floor (64 KiB) in the HARD band
    // [85%, 95%) of budget: candidates still build — through the
    // cheap pass subset — while admissions are rejected.
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = 30000;
    cfg.governor.budgetBytes = 68u << 10;

    const sim::RunStats stats = runRpo(cfg);
    EXPECT_GE(stats.x86Retired, cfg.maxInsts);
    EXPECT_GT(stats.govHardTransitions, 0u);
    EXPECT_GT(stats.govCheapOpts, 0u);
    EXPECT_LT(stats.govPeakBytes, 2 * cfg.governor.budgetBytes);
}

TEST(Degradation, CriticalPressureSuspendsFrameConstruction)
{
    // 60 KiB puts the one-chunk floor above 95% of budget: frame
    // construction is suspended outright, and the conventional path
    // carries the run to completion.
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = 30000;
    cfg.governor.budgetBytes = 60u << 10;

    const sim::RunStats stats = runRpo(cfg);
    EXPECT_GE(stats.x86Retired, cfg.maxInsts);
    EXPECT_GT(stats.govCriticalTransitions, 0u);
    EXPECT_GT(stats.govSuspendedCandidates, 0u);
    EXPECT_LT(stats.govPeakBytes, 2 * cfg.governor.budgetBytes);
}

TEST(Degradation, GenerousBudgetIsBitIdenticalToUngoverned)
{
    SimConfig governed = SimConfig::make(Machine::RPO);
    governed.maxInsts = 20000;
    governed.governor.budgetBytes = size_t(1) << 32;    // never SOFT

    SimConfig ungoverned = SimConfig::make(Machine::RPO);
    ungoverned.maxInsts = 20000;

    const sim::RunStats a = runRpo(governed);
    const sim::RunStats b = runRpo(ungoverned);
    // A governor that never leaves OK must not perturb the run: the
    // ladder is observation-only until a threshold crosses, and the
    // fingerprint guard ignores zero governance counters.
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_GT(a.govPeakBytes, 0u);      // it was watching, though
}

TEST(Degradation, GovernedRunIsDeterministic)
{
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = 30000;
    cfg.governor.budgetBytes = 128u << 10;
    const sim::RunStats a = runRpo(cfg);
    const sim::RunStats b = runRpo(cfg);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------
// Tiered re-optimization under memory pressure: every re-optimization
// ends in exactly one terminal counter, and the run stays reproducible
// ---------------------------------------------------------------------

namespace {

/** Every re-optimization ends in exactly one terminal counter. */
void
expectTierAccountingBalances(const sim::RunStats &stats)
{
    EXPECT_EQ(stats.tierEnqueues,
              stats.tierPublishes + stats.tierVerifyRejects +
                  stats.tierStaleDrops + stats.tierDroppedAtExit);
}

} // namespace

TEST(TierChurn, GovernedDeterministicTierIsReproducible)
{
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = 30000;
    cfg.governor.budgetBytes = 192u << 10;
    cfg.engine.tier.enabled = true;
    const sim::RunStats a = runRpo(cfg);
    const sim::RunStats b = runRpo(cfg);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    expectTierAccountingBalances(a);
}

// ---------------------------------------------------------------------
// Governed counters merge order-independently (sweep determinism)
// ---------------------------------------------------------------------

TEST(RunStatsMerge, GovernorCountersAreOrderIndependent)
{
    auto make = [](uint64_t base) {
        sim::RunStats s;
        s.workload = "w";
        s.config = "c";
        s.govSoftTransitions = base;
        s.govHardTransitions = base * 2;
        s.govCriticalTransitions = base % 3;
        s.govShedFrames = base * 7;
        s.govAdmitRejects = base + 1;
        s.govCheapOpts = base + 2;
        s.govSuspendedCandidates = base + 3;
        s.allocFailures = base % 5;
        s.stallsInjected = base % 2;
        s.govPeakBytes = base * 1000;
        return s;
    };
    const sim::RunStats parts[3] = {make(3), make(11), make(7)};

    sim::RunStats fwd;
    fwd.workload = "w";
    fwd.config = "c";
    sim::RunStats rev = fwd;
    for (int i = 0; i < 3; ++i)
        fwd.merge(parts[i]);
    for (int i = 2; i >= 0; --i)
        rev.merge(parts[i]);

    EXPECT_EQ(fwd.fingerprint(), rev.fingerprint());
    EXPECT_EQ(fwd.govPeakBytes, 11000u);    // max, not sum
    EXPECT_EQ(fwd.govSoftTransitions, 21u); // sums commute
}

TEST(RunStatsMerge, UngovernedFingerprintUnchangedByGovernorFields)
{
    // The guard: all-zero governance counters must not contribute to
    // the fingerprint, so pre-governor golden fingerprints hold.
    sim::RunStats a;
    a.workload = "w";
    a.x86Retired = 12345;
    sim::RunStats b = a;
    b.govShedFrames = 1;    // a degradation action must change it
    EXPECT_NE(a.fingerprint(), b.fingerprint());
    sim::RunStats c = a;
    c.govPeakBytes = 1;     // observation alone must NOT change it
    EXPECT_EQ(a.fingerprint(), c.fingerprint());
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

TEST(SweepWatchdog, GovernedSweepDigestStableAcrossJobs)
{
    SimConfig governed = SimConfig::make(Machine::RPO);
    governed.governor.budgetBytes = 128u << 10;
    const auto cells = sim::gridCells(
        {&trace::findWorkload("gzip"), &trace::findWorkload("bzip2")},
        {{"RPO-gov", governed}});

    sim::SweepOptions serial;
    serial.jobs = 1;
    serial.instsPerTrace = 8000;
    serial.warmup = false;
    sim::SweepOptions parallel = serial;
    parallel.jobs = 4;

    EXPECT_EQ(sim::runSweep(cells, serial).digest(),
              sim::runSweep(cells, parallel).digest());
}
