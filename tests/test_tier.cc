/**
 * @file
 * Tier battery for the tiered re-optimization engine: the frame
 * cache's versioned-slot publish protocol, and end-to-end engine runs
 * proving that every re-optimization is accounted for and that tiered
 * runs are reproducible.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/workload.hh"

using namespace replay;
using core::Frame;
using core::FrameCache;
using core::FramePtr;
using sim::Machine;
using sim::SimConfig;

// ---------------------------------------------------------------------
// FrameCache versioned-slot publication
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

TEST(FrameCachePublish, SwapUpdatesBodyWithoutTouchingLru)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 30));
    cache.insert(makeFrame(0x2000, 30));
    (void)cache.lookup(0x1000);     // 0x2000 is now the LRU entry

    ASSERT_TRUE(cache.publish(0x2000, makeFrame(0x2000, 10)));
    EXPECT_EQ(cache.occupiedUops(), 40u);
    EXPECT_EQ(cache.probe(0x2000)->numUops(), 10u);
    EXPECT_EQ(cache.stats().get("publishes"), 1u);

    // Publication is not a use: 0x2000 must still be the eviction
    // victim when a newcomer needs the space.
    cache.insert(makeFrame(0x3000, 70));
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_NE(cache.probe(0x3000), nullptr);
}

TEST(FrameCachePublish, OversizePublishIsRejectedIntact)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 60));
    cache.insert(makeFrame(0x2000, 40));

    // Growing 60 -> 70 would overflow capacity: rejected, untouched.
    EXPECT_FALSE(cache.publish(0x1000, makeFrame(0x1000, 70)));
    EXPECT_EQ(cache.occupiedUops(), 100u);
    EXPECT_EQ(cache.probe(0x1000)->numUops(), 60u);
    EXPECT_EQ(cache.stats().get("publish_rejects"), 1u);

    // Shrinking (the normal re-opt case) always lands.
    EXPECT_TRUE(cache.publish(0x1000, makeFrame(0x1000, 50)));
    EXPECT_EQ(cache.occupiedUops(), 90u);
}

TEST(FrameCacheAudit, GovernorModelMatchesDirectRecountAfterChurn)
{
    // The O(1) occupancy model feeds the governor; tier republication
    // is the one path where a resident body's size changes in place,
    // so drive insert/publish/evict/shed churn and check the model
    // against a from-scratch recount at every step.
    ResourceGovernor governor;
    FrameCache cache(300);
    cache.setGovernor(&governor);
    const unsigned gov_id = 0;      // first registered consumer

    auto audit = [&](const char *where) {
        EXPECT_EQ(cache.occupiedUops(), cache.recountUops()) << where;
        EXPECT_EQ(cache.memoryBytes(), cache.auditBytes()) << where;
        EXPECT_EQ(governor.consumerBytes(gov_id), cache.memoryBytes())
            << where;
    };

    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100)
        cache.insert(makeFrame(pc, 30));
    audit("after inserts (with capacity evictions)");

    // Republish half the residents with shrunken bodies (the normal
    // re-opt outcome), one with a grown body, and one oversize reject.
    unsigned flip = 0;
    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100) {
        if (!cache.probe(pc))
            continue;
        if (flip++ % 2 == 0) {
            ASSERT_TRUE(cache.publish(pc, makeFrame(pc, 12)));
            audit("after shrinking publish");
        }
    }
    for (uint32_t pc = 0x1000; pc < 0x1000 + 8 * 0x100; pc += 0x100) {
        if (!cache.probe(pc))
            continue;
        EXPECT_TRUE(cache.publish(pc, makeFrame(pc, 40)));
        audit("after growing publish");
        EXPECT_FALSE(cache.publish(pc, makeFrame(pc, 4000)));
        audit("after rejected oversize publish");
        break;
    }

    // Invalidate one, shed one, then re-fill; the model must track
    // every departure and arrival exactly.
    cache.invalidate(0x1200);
    audit("after invalidate");
    (void)cache.shedLru();
    audit("after shed");
    cache.insert(makeFrame(0x9000, 25));
    audit("after re-fill");
    EXPECT_GT(cache.stats().get("publishes"), 0u);
}

// ---------------------------------------------------------------------
// End-to-end tiered engine runs
// ---------------------------------------------------------------------

namespace {

sim::RunStats
runTiered(const std::string &app, bool tier, uint64_t insts = 30000,
          bool verify_online = false)
{
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = insts;
    cfg.verifyOnline = verify_online;
    cfg.engine.tier.enabled = tier;
    auto src = trace::findWorkload(app).openTrace(0, cfg.maxInsts);
    sim::Simulator simulator(cfg);
    return simulator.run(*src);
}

/**
 * Every re-optimization must be accounted for: published, rejected by
 * the verifier, dropped as stale, or left unpublished at exit.  A leak
 * in the inflight bookkeeping shows up as an imbalance here.
 */
void
expectTierAccountingBalances(const sim::RunStats &stats)
{
    EXPECT_EQ(stats.tierEnqueues,
              stats.tierPublishes + stats.tierVerifyRejects +
                  stats.tierStaleDrops + stats.tierDroppedAtExit);
}

} // namespace

TEST(TierEngineRun, InlineReoptPublishesHotFrames)
{
    const sim::RunStats stats = runTiered("gzip", true);
    EXPECT_GT(stats.frameCommits, 0u);
    EXPECT_GT(stats.tierEnqueues, 0u);
    EXPECT_GT(stats.tierPublishes, 0u);
    // The full pipeline removes micro-ops the cheap tier could not.
    EXPECT_GT(stats.tierUopsRemoved, 0u);
    EXPECT_EQ(stats.corruptFrameCommits, 0u);
    expectTierAccountingBalances(stats);
}

TEST(TierEngineRun, UntieredRunHasZeroTierCounters)
{
    const sim::RunStats stats = runTiered("gzip", false);
    EXPECT_EQ(stats.tierEnqueues, 0u);
    EXPECT_EQ(stats.tierPublishes, 0u);
    EXPECT_EQ(stats.tierDroppedAtExit, 0u);
}

TEST(TierEngineRun, DeterministicTierModeIsReproducible)
{
    const sim::RunStats a = runTiered("bzip2", true);
    const sim::RunStats b = runTiered("bzip2", true);
    EXPECT_GT(a.tierPublishes, 0u);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    expectTierAccountingBalances(a);
}

/**
 * The acceptance bar for the whole tier: whether a frame gets the full
 * pipeline at admission (tier off) or is admitted cheap and
 * re-optimized once hot, every workload must retire the same
 * architectural state — same online-verifier digest, zero detections,
 * zero corrupt commits.  Timing may differ (publication points shift);
 * semantics may not.
 */
TEST(TierConvergence, TieredMatchesUntieredArchitecturalDigest)
{
    for (const auto &workload : trace::standardWorkloads()) {
        const sim::RunStats untiered =
            runTiered(workload.name, false, 16000, true);
        const sim::RunStats tiered =
            runTiered(workload.name, true, 16000, true);

        ASSERT_TRUE(untiered.archDigestValid) << workload.name;
        ASSERT_TRUE(tiered.archDigestValid) << workload.name;
        EXPECT_EQ(tiered.archDigest, untiered.archDigest)
            << workload.name;

        EXPECT_EQ(untiered.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(tiered.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(tiered.corruptFrameCommits, 0u) << workload.name;

        expectTierAccountingBalances(tiered);
    }
}

TEST(TierSweep, DeterministicTierDigestStableAcrossJobs)
{
    const auto cells = sim::gridCells(
        {&trace::findWorkload("gzip"), &trace::findWorkload("bzip2")},
        {{"RPO-tier", SimConfig::make(Machine::RPO)}});

    sim::SweepOptions serial;
    serial.jobs = 1;
    serial.instsPerTrace = 8000;
    serial.warmup = false;
    serial.tier = true;
    sim::SweepOptions parallel = serial;
    parallel.jobs = 4;

    const auto a = sim::runSweep(cells, serial);
    const auto b = sim::runSweep(cells, parallel);
    EXPECT_GT(a.cells[0].tierEnqueues, 0u);
    EXPECT_EQ(a.digest(), b.digest());
}

/**
 * The full publish protocol under memory pressure: many short
 * governed, tiered runs back to back through re-optimization, drain,
 * publish, eviction and pressure shedding.  Correctness is the
 * accounting invariant plus a clean online-verifier record on every
 * iteration.
 */
TEST(TierStress, GovernedTieredSoakKeepsAccountsBalanced)
{
    for (unsigned round = 0; round < 6; ++round) {
        SimConfig cfg = SimConfig::make(Machine::RPO);
        cfg.maxInsts = 12000;
        cfg.verifyOnline = true;
        cfg.engine.tier.enabled = true;
        cfg.engine.tier.hotThreshold = 1 + round % 3;
        cfg.governor.budgetBytes = (192u + 64u * (round % 4)) << 10;
        const auto &workloads = trace::standardWorkloads();
        const auto &workload = workloads[round % workloads.size()];
        auto src = workload.openTrace(0, cfg.maxInsts);
        sim::Simulator simulator(cfg);
        const sim::RunStats stats = simulator.run(*src);

        EXPECT_GE(stats.x86Retired, cfg.maxInsts) << workload.name;
        EXPECT_EQ(stats.verifyDetections, 0u) << workload.name;
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << workload.name;
        expectTierAccountingBalances(stats);
    }
}
