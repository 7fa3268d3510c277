/**
 * @file
 * Tests for the rePLay core: bias/target tables, frame construction,
 * frame cache replacement, alias profiling, and frame resolution
 * against the trace.
 */

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "core/aliasprofile.hh"
#include "core/biastable.hh"
#include "core/constructor.hh"
#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "trace/chunk.hh"
#include "trace/tracer.hh"
#include "trace/workload.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/asmbuilder.hh"

using namespace replay;
using namespace replay::core;
using trace::TraceRecord;
using x86::AsmBuilder;
using x86::Cond;
using x86::memAt;
using x86::Reg;

TEST(BiasTable, PromotesAfterEnoughSamples)
{
    BiasTable table(64, 16, 15, 16);
    EXPECT_EQ(table.classify(0x100), BranchBias::UNKNOWN);
    for (int i = 0; i < 32; ++i)
        table.record(0x100, true);
    EXPECT_EQ(table.classify(0x100), BranchBias::BIASED_TAKEN);

    for (int i = 0; i < 64; ++i)
        table.record(0x200, false);
    EXPECT_EQ(table.classify(0x200), BranchBias::BIASED_NOT_TAKEN);
}

TEST(BiasTable, MixedBranchNotPromoted)
{
    BiasTable table(64, 16, 15, 16);
    for (int i = 0; i < 64; ++i)
        table.record(0x300, i % 3 != 0);    // ~67% taken
    EXPECT_EQ(table.classify(0x300), BranchBias::NOT_BIASED);
}

TEST(BiasTable, ConflictStealsEntry)
{
    BiasTable table(16, 8, 15, 16);
    for (int i = 0; i < 32; ++i)
        table.record(0x100, true);
    // Same index (same low bits), different tag.
    for (int i = 0; i < 32; ++i)
        table.record(0x100 + 16 * 2, false);
    EXPECT_EQ(table.classify(0x100), BranchBias::UNKNOWN);
    EXPECT_EQ(table.classify(0x100 + 32), BranchBias::BIASED_NOT_TAKEN);
}

TEST(TargetTable, StableAfterStreak)
{
    TargetTable table(64, 8);
    for (int i = 0; i < 7; ++i)
        table.record(0x400, 0x5000);
    EXPECT_EQ(table.stableTarget(0x400), 0u);
    table.record(0x400, 0x5000);
    EXPECT_EQ(table.stableTarget(0x400), 0x5000u);
    table.record(0x400, 0x6000);    // target changed
    EXPECT_EQ(table.stableTarget(0x400), 0u);
}

TEST(FrameCache, LruEvictionByUopCapacity)
{
    FrameCache cache(100);
    auto mk = [](uint32_t pc, unsigned uops) {
        auto f = std::make_shared<Frame>();
        f->startPc = pc;
        f->pcs = {pc};
        f->body.resize(uops);
        return f;
    };
    cache.insert(mk(0x1000, 40));
    cache.insert(mk(0x2000, 40));
    EXPECT_EQ(cache.occupiedUops(), 80u);
    // Touch 0x1000 so 0x2000 is the LRU victim.
    EXPECT_NE(cache.lookup(0x1000), nullptr);
    cache.insert(mk(0x3000, 40));
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    EXPECT_NE(cache.probe(0x1000), nullptr);
    EXPECT_NE(cache.probe(0x3000), nullptr);
}

TEST(FrameCache, ReplaceSameStartPc)
{
    FrameCache cache(100);
    auto f1 = std::make_shared<Frame>();
    f1->startPc = 0x1000;
    f1->body.resize(30);
    auto f2 = std::make_shared<Frame>();
    f2->startPc = 0x1000;
    f2->body.resize(20);
    cache.insert(f1);
    cache.insert(f2);
    EXPECT_EQ(cache.numFrames(), 1u);
    EXPECT_EQ(cache.occupiedUops(), 20u);
}

TEST(FrameCache, RejectsOversizedFrame)
{
    FrameCache cache(10);
    auto f = std::make_shared<Frame>();
    f->startPc = 0x1000;
    f->body.resize(11);
    cache.insert(f);
    EXPECT_EQ(cache.numFrames(), 0u);
}

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

/** occupied_ must always equal the sum of resident frame sizes. */
void
expectConsistentOccupancy(FrameCache &cache,
                          const std::vector<uint32_t> &pcs)
{
    unsigned resident = 0;
    for (const uint32_t pc : pcs)
        if (auto f = cache.probe(pc))
            resident += f->numUops();
    EXPECT_EQ(cache.occupiedUops(), resident);
    EXPECT_LE(cache.occupiedUops(), cache.capacityUops());
}

} // anonymous namespace

TEST(FrameCache, OversizedRejectLeavesOccupancyUntouched)
{
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 60));
    EXPECT_EQ(cache.occupiedUops(), 60u);
    cache.insert(makeFrame(0x2000, 101));       // larger than capacity
    EXPECT_EQ(cache.numFrames(), 1u);
    EXPECT_EQ(cache.occupiedUops(), 60u);
    EXPECT_EQ(cache.stats().get("rejected"), 1u);
}

TEST(FrameCache, ReinsertSamePcAccountsInvalidateThenInsert)
{
    // Replacing the frame at a PC must charge the new size only —
    // never old+new — even when the replacement forces evictions.
    FrameCache cache(100);
    cache.insert(makeFrame(0x1000, 40));
    cache.insert(makeFrame(0x2000, 40));
    EXPECT_EQ(cache.occupiedUops(), 80u);

    // Same PC, bigger body: 0x1000's 40 slots are released first, then
    // the 90-slot replacement still needs 0x2000 evicted.
    cache.insert(makeFrame(0x1000, 90));
    EXPECT_EQ(cache.numFrames(), 1u);
    EXPECT_EQ(cache.occupiedUops(), 90u);
    EXPECT_EQ(cache.probe(0x2000), nullptr);
    expectConsistentOccupancy(cache, {0x1000, 0x2000});

    // Same PC, smaller body: occupancy shrinks to the new size.
    cache.insert(makeFrame(0x1000, 10));
    EXPECT_EQ(cache.occupiedUops(), 10u);
    expectConsistentOccupancy(cache, {0x1000, 0x2000});
}

TEST(FrameCache, EvictionChurnNeverUnderflowsOccupancy)
{
    // Mixed insert / replace / invalidate churn with exact-fit
    // evictions.  occupied_ is unsigned: any double-release would wrap
    // it huge and the <= capacity invariant would trip immediately.
    FrameCache cache(64);
    std::vector<uint32_t> pcs;
    for (uint32_t i = 0; i < 16; ++i)
        pcs.push_back(0x1000 + i * 0x100);

    Rng rng(42);
    for (unsigned step = 0; step < 2000; ++step) {
        const uint32_t pc = pcs[rng.below(pcs.size())];
        switch (rng.below(4)) {
          case 0:
          case 1:
            cache.insert(makeFrame(pc, 1 + unsigned(rng.below(64))));
            break;
          case 2:
            cache.invalidate(pc);
            break;
          default:
            cache.lookup(pc);
            break;
        }
        expectConsistentOccupancy(cache, pcs);
    }

    // Drain completely: occupancy must land exactly on zero.
    for (const uint32_t pc : pcs)
        cache.invalidate(pc);
    EXPECT_EQ(cache.occupiedUops(), 0u);
    EXPECT_EQ(cache.numFrames(), 0u);

    // An exact-fit insert into the drained cache still works.
    cache.insert(makeFrame(0x9000, 64));
    EXPECT_EQ(cache.occupiedUops(), 64u);
}

TEST(AliasProfile, DirtyOnOverlapWithPrior)
{
    AliasProfile profile;
    std::vector<TraceRecord> records(2);
    records[0].pc = 0x100;
    records[0].numMemOps = 1;
    records[0].memOps[0] = {true, 0x2000, 4, 0};    // store A
    records[1].pc = 0x104;
    records[1].numMemOps = 1;
    records[1].memOps[0] = {true, 0x2002, 4, 0};    // overlaps A
    profile.observeInstance(records);

    EXPECT_TRUE(profile.cleanForSpeculation(0x100, 0));   // first store
    EXPECT_FALSE(profile.cleanForSpeculation(0x104, 0));  // overlapped
}

TEST(AliasProfile, MarkDirtyIsSticky)
{
    AliasProfile profile;
    EXPECT_TRUE(profile.cleanForSpeculation(0x500, 1));
    profile.markDirty(0x500, 1);
    EXPECT_FALSE(profile.cleanForSpeculation(0x500, 1));
}

// ---------------------------------------------------------------------
// Frame construction
// ---------------------------------------------------------------------

namespace {

/** A loop with one biased branch (taken 15/16) and a biased skip. */
x86::Program
biasedLoopProgram()
{
    AsmBuilder b;
    b.dataRegion("d", 4096);
    b.movRI(Reg::ESI, int32_t(b.dataAddr("d")));
    b.xorRR(Reg::ECX, Reg::ECX);
    b.label("loop");
    b.addRI(Reg::ECX, 1);
    b.movRR(Reg::EAX, Reg::ECX);
    b.andRI(Reg::EAX, 15);
    b.cmpRI(Reg::EAX, 0);
    b.jcc(Cond::E, "rare");         // taken 1/16: biased not-taken
    b.label("back");
    b.movRM(Reg::EBX, memAt(Reg::ESI, 0));
    b.addRI(Reg::EBX, 3);
    b.movMR(memAt(Reg::ESI, 0), Reg::EBX);
    b.jmp("loop");
    b.label("rare");
    b.addRI(Reg::EDX, 1);
    b.jmp("back");
    return b.build();
}

} // namespace

TEST(FrameConstructor, BuildsFramesFromBiasedLoop)
{
    FrameConstructor ctor;
    const auto prog = biasedLoopProgram();
    trace::ExecutorTraceSource src(prog, 4000);

    std::vector<FrameCandidate> candidates;
    while (!src.done()) {
        auto cand = ctor.observe(*src.peek());
        if (cand)
            candidates.push_back(std::move(*cand));
        src.advance();
    }
    ASSERT_FALSE(candidates.empty());

    for (const auto &cand : candidates) {
        EXPECT_GE(cand.uops.size(), 8u);
        EXPECT_LE(cand.uops.size(), 256u);
        EXPECT_EQ(cand.pcs.size(), cand.records.size());
        // Frames contain no conditional-branch micro-ops: promoted
        // branches are asserts.
        for (const auto &u : cand.uops)
            EXPECT_NE(u.op, uop::Op::BR);
        // Block annotations are monotone.
        for (size_t i = 1; i < cand.blocks.size(); ++i)
            EXPECT_GE(cand.blocks[i], cand.blocks[i - 1]);
    }

    // The loop's biased branch must eventually be promoted: some
    // candidate contains an assertion.
    bool saw_assert = false;
    for (const auto &cand : candidates)
        for (const auto &u : cand.uops)
            saw_assert |= u.op == uop::Op::ASSERT;
    EXPECT_TRUE(saw_assert);
}

TEST(FrameConstructor, MaxSizeRespected)
{
    // A long straight-line body forces frames to close at the limit.
    AsmBuilder b;
    b.dataRegion("d", 4096);
    b.movRI(Reg::ESI, int32_t(b.dataAddr("d")));
    b.label("loop");
    for (int i = 0; i < 200; ++i)
        b.addRI(Reg::EAX, i + 1);
    b.jmp("loop");
    const auto prog = b.build();

    ConstructorConfig cfg;
    FrameConstructor ctor(cfg);
    trace::ExecutorTraceSource src(prog, 3000);
    unsigned emitted = 0;
    while (!src.done()) {
        if (auto cand = ctor.observe(*src.peek())) {
            EXPECT_LE(cand->uops.size(), cfg.maxUops);
            EXPECT_GE(cand->uops.size(), cfg.maxUops - 8);
            ++emitted;
        }
        src.advance();
    }
    EXPECT_GE(emitted, 5u);
}

TEST(FrameConstructor, StableReturnBecomesValueAssert)
{
    // A single call site: the RET target is perfectly stable, so
    // construction continues through the return via a value assert.
    AsmBuilder b;
    b.dataRegion("d", 4096);
    b.movRI(Reg::ESI, int32_t(b.dataAddr("d")));
    b.label("loop");
    b.call("callee");
    b.addRI(Reg::EAX, 1);
    b.jmp("loop");
    b.label("callee");
    b.movRM(Reg::EBX, memAt(Reg::ESI, 0));
    b.addRI(Reg::EBX, 1);
    b.movMR(memAt(Reg::ESI, 0), Reg::EBX);
    b.ret();
    const auto prog = b.build();

    FrameConstructor ctor;
    trace::ExecutorTraceSource src(prog, 2000);
    bool saw_value_assert = false;
    while (!src.done()) {
        if (auto cand = ctor.observe(*src.peek())) {
            for (const auto &u : cand->uops) {
                if (u.op == uop::Op::ASSERT && u.valueAssert)
                    saw_value_assert = true;
            }
        }
        src.advance();
    }
    EXPECT_TRUE(saw_value_assert);
}

TEST(ResolveFrame, CommitsOnMatchingPath)
{
    Frame frame;
    frame.pcs = {0x100, 0x105, 0x10a};
    frame.nextPc = 0x110;

    std::vector<TraceRecord> records(3);
    records[0].pc = 0x100;
    records[0].nextPc = 0x105;
    records[1].pc = 0x105;
    records[1].nextPc = 0x10a;
    records[2].pc = 0x10a;
    records[2].nextPc = 0x110;
    trace::VectorTraceSource src(records);

    const auto outcome = resolveFrame(frame, src);
    EXPECT_EQ(outcome.kind, FrameOutcome::Kind::COMMITS);
}

TEST(ResolveFrame, AssertsOnDivergence)
{
    Frame frame;
    frame.pcs = {0x100, 0x105, 0x10a};
    frame.nextPc = 0x110;

    std::vector<TraceRecord> records(3);
    records[0].pc = 0x100;
    records[0].nextPc = 0x105;
    records[1].pc = 0x105;
    records[1].nextPc = 0x200;      // diverges here
    records[2].pc = 0x200;
    records[2].nextPc = 0x204;
    trace::VectorTraceSource src(records);

    const auto outcome = resolveFrame(frame, src);
    EXPECT_EQ(outcome.kind, FrameOutcome::Kind::ASSERTS);
    EXPECT_EQ(outcome.faultIndex, 1u);
}

TEST(ResolveFrame, DynamicExitIgnoresFinalTarget)
{
    Frame frame;
    frame.pcs = {0x100, 0x105};
    frame.nextPc = 0x110;
    frame.dynamicExit = true;

    std::vector<TraceRecord> records(2);
    records[0].pc = 0x100;
    records[0].nextPc = 0x105;
    records[1].pc = 0x105;
    records[1].nextPc = 0x9999;     // different target: still commits
    trace::VectorTraceSource src(records);

    EXPECT_EQ(resolveFrame(frame, src).kind,
              FrameOutcome::Kind::COMMITS);
}

TEST(ResolveFrame, UnsafeConflictDetected)
{
    Frame frame;
    frame.pcs = {0x100, 0x105, 0x10a};
    frame.nextPc = 0x110;
    frame.unsafeStores = {{1, 0}};  // instruction 1, first access

    std::vector<TraceRecord> records(3);
    records[0].pc = 0x100;
    records[0].nextPc = 0x105;
    records[0].numMemOps = 1;
    records[0].memOps[0] = {false, 0x3000, 4, 0};   // load
    records[1].pc = 0x105;
    records[1].nextPc = 0x10a;
    records[1].numMemOps = 1;
    records[1].memOps[0] = {true, 0x3002, 4, 0};    // unsafe store
    records[2].pc = 0x10a;
    records[2].nextPc = 0x110;
    trace::VectorTraceSource src(records);

    const auto outcome = resolveFrame(frame, src);
    EXPECT_EQ(outcome.kind, FrameOutcome::Kind::UNSAFE_CONFLICT);
    EXPECT_EQ(outcome.faultIndex, 1u);

    // Same frame, disjoint store: commits.
    records[1].memOps[0].addr = 0x4000;
    trace::VectorTraceSource src2(records);
    EXPECT_EQ(resolveFrame(frame, src2).kind,
              FrameOutcome::Kind::COMMITS);
}

TEST(RePlayEngine, BuildsAndServesFrames)
{
    EngineConfig cfg;
    RePlayEngine engine(cfg);
    const auto prog = biasedLoopProgram();
    trace::ExecutorTraceSource src(prog, 20000);

    uint64_t now = 0;
    unsigned hits = 0;
    while (!src.done()) {
        const TraceRecord *rec = src.peek();
        if (auto frame = engine.frameFor(rec->pc, now)) {
            const auto outcome = resolveFrame(*frame, src);
            if (outcome.kind == FrameOutcome::Kind::COMMITS) {
                ++hits;
                engine.frameCommitted(frame);
                for (unsigned i = 0; i < frame->numX86Insts(); ++i)
                    src.advance();
                now += frame->numUops();
                continue;
            }
            engine.frameAborted(frame, outcome);
        }
        engine.observeRetired(*rec, now);
        src.advance();
        now += 2;
    }
    EXPECT_GT(hits, 50u);
    EXPECT_GT(engine.cache().numFrames(), 0u);
}

TEST(FrameCache, StatsTrackHitsMissesEvictions)
{
    FrameCache cache(64);
    auto mk = [](uint32_t pc, unsigned uops) {
        auto f = std::make_shared<Frame>();
        f->startPc = pc;
        f->pcs = {pc};
        f->body.resize(uops);
        return f;
    };
    cache.insert(mk(0x1000, 40));
    cache.insert(mk(0x2000, 40));       // evicts 0x1000
    EXPECT_EQ(cache.stats().get("evictions"), 1u);
    EXPECT_EQ(cache.lookup(0x1000), nullptr);
    EXPECT_NE(cache.lookup(0x2000), nullptr);
    EXPECT_EQ(cache.stats().get("hits"), 1u);
    EXPECT_EQ(cache.stats().get("misses"), 1u);
}

TEST(FrameConstructor, LongflowEndsFrame)
{
    using x86::AsmBuilder;
    AsmBuilder b;
    b.dataRegion("d", 4096);
    b.movRI(x86::Reg::ESI, int32_t(b.dataAddr("d")));
    b.label("loop");
    for (int i = 0; i < 12; ++i)
        b.addRI(x86::Reg::EAX, i + 1);
    b.longflow();
    b.jmp("loop");
    const auto prog = b.build();

    FrameConstructor ctor;
    trace::ExecutorTraceSource src(prog, 400);
    unsigned emitted = 0;
    while (!src.done()) {
        if (auto cand = ctor.observe(*src.peek())) {
            ++emitted;
            // No frame may contain the long-flow instruction.
            for (const auto &u : cand->uops)
                EXPECT_NE(u.op, uop::Op::LONGFLOW);
        }
        src.advance();
    }
    EXPECT_GT(emitted, 3u);
}

TEST(FrameConstructor, CandidateRecordsMatchPcs)
{
    FrameConstructor ctor;
    const auto &w = trace::findWorkload("access");
    const auto prog = w.buildProgram(1);
    trace::ExecutorTraceSource src(prog, 20000);
    while (!src.done()) {
        if (auto cand = ctor.observe(*src.peek())) {
            ASSERT_EQ(cand->records.size(), cand->pcs.size());
            for (size_t i = 0; i < cand->pcs.size(); ++i)
                EXPECT_EQ(cand->records[i].pc, cand->pcs[i]);
            // Path continuity: each record's next is the next pc.
            for (size_t i = 0; i + 1 < cand->pcs.size(); ++i)
                EXPECT_EQ(cand->records[i].nextPc, cand->pcs[i + 1]);
        }
        src.advance();
    }
}

// ---------------------------------------------------------------------
// Quarantine (verifier-rejected frame blacklist)
// ---------------------------------------------------------------------

TEST(Quarantine, BlocksThenReadmits)
{
    QuarantineConfig cfg;
    cfg.basePenaltyCycles = 100;
    cfg.decayCycles = 10000;
    Quarantine q(cfg);

    EXPECT_FALSE(q.blocked(0x400, 0));
    q.add(0x400, 1000);
    EXPECT_TRUE(q.blocked(0x400, 1050));
    EXPECT_FALSE(q.blocked(0x400, 1100));        // penalty served
    EXPECT_EQ(q.stats().get("readmissions"), 1u);
    // Re-probing after readmission does not recount.
    EXPECT_FALSE(q.blocked(0x400, 1200));
    EXPECT_EQ(q.stats().get("readmissions"), 1u);
}

TEST(Quarantine, RepeatOffenderBacksOffExponentially)
{
    QuarantineConfig cfg;
    cfg.basePenaltyCycles = 100;
    cfg.maxPenaltyCycles = 800;
    cfg.decayCycles = 1000000;      // no decay within this test
    Quarantine q(cfg);

    q.add(0x400, 0);                // strike 1: blocked until 100
    EXPECT_FALSE(q.blocked(0x400, 100));
    q.add(0x400, 100);              // strike 2: blocked until 300
    EXPECT_TRUE(q.blocked(0x400, 250));
    EXPECT_FALSE(q.blocked(0x400, 300));
    q.add(0x400, 300);              // strike 3: blocked until 700
    EXPECT_TRUE(q.blocked(0x400, 650));
    q.add(0x400, 700);              // strike 4: capped at 700+800
    EXPECT_TRUE(q.blocked(0x400, 1400));
    EXPECT_FALSE(q.blocked(0x400, 1500));
    EXPECT_EQ(q.strikes(0x400, 1500), 4u);
}

TEST(Quarantine, QuietTimeForgivesStrikes)
{
    QuarantineConfig cfg;
    cfg.basePenaltyCycles = 100;
    cfg.decayCycles = 1000;
    Quarantine q(cfg);

    q.add(0x400, 0);
    q.add(0x400, 100);
    EXPECT_EQ(q.strikes(0x400, 200), 2u);
    EXPECT_EQ(q.strikes(0x400, 1200), 1u);      // one strike forgiven
    EXPECT_EQ(q.strikes(0x400, 2200), 0u);      // entry expired
    EXPECT_EQ(q.size(), 0u);
}

TEST(Quarantine, BackoffSaturatesAtManyStrikes)
{
    // Regression: the exponential backoff used to compute
    // base << (strikes - 1) unguarded, so a large base plus dozens of
    // strikes overflowed to a zero penalty and instantly unblocked the
    // worst offenders.  The penalty must saturate at the cap instead.
    QuarantineConfig cfg;
    cfg.basePenaltyCycles = 1u << 30;
    cfg.maxPenaltyCycles = 5000000;
    cfg.decayCycles = 1u << 30;
    Quarantine q(cfg);

    for (int i = 0; i < 80; ++i)
        q.add(0x400, 0);
    EXPECT_TRUE(q.blocked(0x400, 1));
    EXPECT_TRUE(q.blocked(0x400, cfg.maxPenaltyCycles - 1));
    EXPECT_FALSE(q.blocked(0x400, cfg.maxPenaltyCycles));
}

TEST(Quarantine, TableStaysBounded)
{
    QuarantineConfig cfg;
    cfg.basePenaltyCycles = 100;
    cfg.decayCycles = 1000000;
    cfg.maxEntries = 8;
    Quarantine q(cfg);

    for (uint32_t pc = 0; pc < 64; ++pc)
        q.add(0x1000 + pc * 4, pc);
    EXPECT_LE(q.size(), 8u);
    EXPECT_GT(q.stats().get("table_evictions"), 0u);
    // The most recent offender survives the pruning.
    EXPECT_TRUE(q.blocked(0x1000 + 63 * 4, 64));
}

TEST(RePlayEngine, QuarantinedFrameNotServed)
{
    RePlayEngine engine;
    auto frame = std::make_shared<Frame>();
    frame->startPc = 0x400;
    frame->pcs = {0x400};
    engine.cache().insert(frame);
    ASSERT_NE(engine.frameFor(0x400, 0), nullptr);

    engine.frameQuarantined(frame, 0);
    EXPECT_EQ(engine.frameFor(0x400, 1), nullptr);
    EXPECT_EQ(engine.stats().get("quarantines"), 1u);
    EXPECT_GT(engine.stats().get("quarantine_blocks"), 0u);
}

// ---------------------------------------------------------------------
// Sequencer edges: duplicate suppression, optimizer saturation,
// optimization-latency visibility, bias eviction, conflict handoff.
// ---------------------------------------------------------------------

TEST(RePlayEngine, DuplicateCandidatesSuppressed)
{
    // Feed the trace without ever fetching frames: the constructor
    // keeps re-synthesizing the same hot-loop frame, and every rebuild
    // after the first must be recognized as a duplicate of the cached
    // (or in-flight) frame rather than re-enqueued.
    RePlayEngine engine;
    const auto prog = biasedLoopProgram();
    trace::ExecutorTraceSource src(prog, 20000);

    uint64_t now = 0;
    while (!src.done()) {
        engine.observeRetired(*src.peek(), now);
        src.advance();
        now += 2;
    }
    EXPECT_GT(engine.stats().get("duplicate_candidates"), 10u);
    // The cache holds the few distinct frames, not one per rebuild.
    EXPECT_LE(engine.cache().numFrames(),
              engine.stats().get("candidates"));
    EXPECT_LE(engine.stats().get("candidates"), 16u);
}

TEST(RePlayEngine, SaturatedOptimizerDropsCandidates)
{
    // A depth-1 pipeline with an absurd per-uop latency stays busy for
    // the whole trace after the first frame; later candidates at other
    // start PCs must be dropped, not queued unboundedly.
    EngineConfig cfg;
    cfg.optPipelineDepth = 1;
    cfg.optCyclesPerUop = 100000;

    AsmBuilder b;
    b.dataRegion("d", 4096);
    b.movRI(Reg::ESI, int32_t(b.dataAddr("d")));
    b.label("loop");
    for (int i = 0; i < 200; ++i)
        b.addRI(Reg::EAX, i + 1);
    b.jmp("loop");
    const auto prog = b.build();

    RePlayEngine engine(cfg);
    trace::ExecutorTraceSource src(prog, 5000);
    uint64_t now = 0;
    while (!src.done()) {
        engine.observeRetired(*src.peek(), now);
        src.advance();
        now += 2;
    }
    EXPECT_EQ(engine.stats().get("candidates"), 1u);
    EXPECT_GT(engine.stats().get("optimizer_drops"), 0u);
    // Nothing became ready within the trace, so the cache is empty.
    EXPECT_EQ(engine.cache().numFrames(), 0u);
}

TEST(RePlayEngine, FrameVisibleOnlyAfterOptimizationLatency)
{
    // Discover a frame start PC with a standalone constructor first.
    const auto prog = biasedLoopProgram();
    uint32_t start_pc = 0;
    {
        FrameConstructor ctor;
        trace::ExecutorTraceSource src(prog, 4000);
        while (!src.done() && start_pc == 0) {
            if (auto cand = ctor.observe(*src.peek()))
                start_pc = cand->startPc;
            src.advance();
        }
        ASSERT_NE(start_pc, 0u);
    }

    // Replay the same trace into an engine with every observation at
    // now = 0: candidates are enqueued, but their ready times lie in
    // the future, so the frame must stay invisible at now = 0 and
    // appear once `now` passes the optimization latency.
    RePlayEngine engine;
    trace::ExecutorTraceSource src(prog, 4000);
    while (!src.done()) {
        engine.observeRetired(*src.peek(), 0);
        src.advance();
    }
    EXPECT_EQ(engine.frameFor(start_pc, 0), nullptr);
    EXPECT_NE(engine.frameFor(start_pc, 1u << 30), nullptr);
}

TEST(RePlayEngine, BiasEvictionAfterRepeatedAssertFires)
{
    EngineConfig cfg;    // evictFireThreshold = 4, evictFirePenalty = 8
    RePlayEngine engine(cfg);
    auto frame = std::make_shared<Frame>();
    frame->startPc = 0x500;
    frame->pcs = {0x500};
    engine.cache().insert(frame);

    FrameOutcome fires;
    fires.kind = FrameOutcome::Kind::ASSERTS;
    for (int i = 0; i < 3; ++i)
        engine.frameAborted(frame, fires);
    // Three fires: below the threshold, still cached.
    EXPECT_NE(engine.cache().probe(0x500), nullptr);
    EXPECT_EQ(engine.stats().get("bias_evictions"), 0u);

    engine.frameAborted(frame, fires);
    EXPECT_EQ(engine.cache().probe(0x500), nullptr);
    EXPECT_EQ(engine.stats().get("bias_evictions"), 1u);
    EXPECT_EQ(engine.stats().get("assert_fires"), 4u);
}

TEST(RePlayEngine, HotFrameSurvivesOccasionalAssertFires)
{
    // A frame that commits 97% of the time never trips the bias
    // watchdog: fires * penalty stays below the fetch count.
    RePlayEngine engine;
    auto frame = std::make_shared<Frame>();
    frame->startPc = 0x600;
    frame->pcs = {0x600};
    engine.cache().insert(frame);

    FrameOutcome fires;
    fires.kind = FrameOutcome::Kind::ASSERTS;
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 40; ++i)
            engine.frameCommitted(frame);
        engine.frameAborted(frame, fires);
        EXPECT_NE(engine.cache().probe(0x600), nullptr);
    }
    EXPECT_EQ(engine.stats().get("bias_evictions"), 0u);
    EXPECT_EQ(engine.stats().get("assert_fires"), 4u);
}

TEST(RePlayEngine, UnsafeConflictDirtiesSiteAndInvalidates)
{
    RePlayEngine engine;
    auto frame = std::make_shared<Frame>();
    frame->startPc = 0x700;
    frame->pcs = {0x700, 0x704, 0x708};
    frame->unsafeStores = {{1, 2}};     // inst 1, third access
    engine.cache().insert(frame);
    ASSERT_TRUE(engine.aliasProfile().cleanForSpeculation(0x704, 2));

    FrameOutcome conflict;
    conflict.kind = FrameOutcome::Kind::UNSAFE_CONFLICT;
    conflict.faultIndex = 1;
    engine.frameAborted(frame, conflict);

    // The store site is blacklisted for speculation and the frame is
    // gone, so the constructor rebuilds it with that store safe.
    EXPECT_FALSE(engine.aliasProfile().cleanForSpeculation(0x704, 2));
    EXPECT_EQ(engine.cache().probe(0x700), nullptr);
    EXPECT_EQ(engine.stats().get("unsafe_conflicts"), 1u);
    // A conflict is not an assert fire and must not count toward bias
    // eviction.
    EXPECT_EQ(engine.stats().get("assert_fires"), 0u);
}

TEST(RePlayEngine, QuarantineBlocksCandidateConstruction)
{
    // Collect every start PC the constructor would emit for this
    // trace, quarantine them all, then replay: no frame may be built
    // and each suppression must be counted.
    const auto prog = biasedLoopProgram();
    std::vector<uint32_t> start_pcs;
    {
        FrameConstructor ctor;
        trace::ExecutorTraceSource src(prog, 8000);
        while (!src.done()) {
            if (auto cand = ctor.observe(*src.peek()))
                start_pcs.push_back(cand->startPc);
            src.advance();
        }
        ASSERT_FALSE(start_pcs.empty());
    }

    EngineConfig cfg;
    cfg.quarantine.basePenaltyCycles = 1u << 30;
    RePlayEngine engine(cfg);
    for (const uint32_t pc : start_pcs)
        engine.quarantine().add(pc, 0);

    trace::ExecutorTraceSource src(prog, 8000);
    uint64_t now = 0;
    while (!src.done()) {
        engine.observeRetired(*src.peek(), now);
        src.advance();
        now += 2;
    }
    EXPECT_EQ(engine.cache().numFrames(), 0u);
    EXPECT_EQ(engine.stats().get("candidates"), 0u);
    EXPECT_GT(engine.stats().get("quarantine_candidate_drops"), 0u);
}

// ---------------------------------------------------------------------------
// Flat-index churn and capacity edges (PR 5).  The frame cache's index
// is an open-addressing table whose physical layout changes under load
// (growth rehashes, tombstone reuse, tombstone-dropping rehashes);
// none of that may be observable through replacement behaviour, which
// is defined purely by the LRU touch order.
// ---------------------------------------------------------------------------

TEST(FrameCache, LruExactAcrossRehashAndTombstones)
{
    // 20 resident frames of 10 uops: enough occupancy to force the
    // flat index through at least one growth rehash.
    FrameCache cache(200);
    std::vector<uint32_t> pcs;
    for (uint32_t i = 0; i < 20; ++i)
        pcs.push_back(0x1000 + i * 0x40);
    for (const uint32_t pc : pcs)
        cache.insert(makeFrame(pc, 10));
    ASSERT_EQ(cache.numFrames(), 20u);
    ASSERT_EQ(cache.occupiedUops(), 200u);

    // Establish a known LRU order by touching every frame.
    for (const uint32_t pc : pcs)
        ASSERT_NE(cache.lookup(pc), nullptr) << std::hex << pc;

    // Punch tombstones into the table and refill the slots, so later
    // probes walk displaced chains.
    for (size_t i = 0; i < pcs.size(); i += 3) {
        cache.invalidate(pcs[i]);
        cache.insert(makeFrame(pcs[i], 10));
        ASSERT_NE(cache.lookup(pcs[i]), nullptr);
    }

    // Re-touch in a fresh, known order; inserts must then evict in
    // exactly that order, one frame per insert (equal sizes).
    for (const uint32_t pc : pcs)
        ASSERT_NE(cache.lookup(pc), nullptr);
    std::vector<uint32_t> everyone = pcs;
    for (size_t i = 0; i < pcs.size(); ++i) {
        const uint32_t newcomer = 0x9000 + uint32_t(i) * 0x40;
        everyone.push_back(newcomer);
        cache.insert(makeFrame(newcomer, 10));
        expectConsistentOccupancy(cache, everyone);
        EXPECT_EQ(cache.probe(pcs[i]), nullptr)
            << "expected LRU victim " << std::hex << pcs[i];
        for (size_t j = i + 1; j < pcs.size(); ++j) {
            EXPECT_NE(cache.probe(pcs[j]), nullptr)
                << "non-LRU frame " << std::hex << pcs[j]
                << " evicted early";
        }
    }
}

TEST(FrameCache, ExactCapacityEdges)
{
    FrameCache cache(100);
    // Fill to exactly capacity: no eviction may fire.
    cache.insert(makeFrame(0x100, 60));
    cache.insert(makeFrame(0x200, 40));
    EXPECT_EQ(cache.occupiedUops(), 100u);
    EXPECT_EQ(cache.stats().counter("evictions").value(), 0u);

    // A frame of exactly the whole capacity is admissible and evicts
    // everything else.
    cache.insert(makeFrame(0x300, 100));
    EXPECT_EQ(cache.numFrames(), 1u);
    EXPECT_EQ(cache.occupiedUops(), 100u);
    EXPECT_NE(cache.probe(0x300), nullptr);

    // One micro-op over capacity is rejected without disturbing the
    // resident frame.
    cache.insert(makeFrame(0x400, 101));
    EXPECT_EQ(cache.numFrames(), 1u);
    EXPECT_NE(cache.probe(0x300), nullptr);
    EXPECT_EQ(cache.stats().counter("rejected").value(), 1u);
}

TEST(FrameCache, HeavyChurnKeepsIndexConsistent)
{
    // Deterministic pseudo-random insert/invalidate/lookup storm over
    // a pc universe several times the resident set, driving the flat
    // index through growth, tombstone accumulation, and compaction.
    FrameCache cache(256);
    Rng rng(0x5eed);
    std::vector<uint32_t> universe;
    for (uint32_t i = 0; i < 128; ++i)
        universe.push_back(0x4000 + i * 0x20);

    for (unsigned step = 0; step < 20000; ++step) {
        const uint32_t pc =
            universe[rng.next() % universe.size()];
        switch (rng.next() % 4) {
          case 0:
          case 1:
            cache.insert(makeFrame(pc, 8 + unsigned(rng.next() % 9)));
            break;
          case 2:
            cache.invalidate(pc);
            break;
          default:
            if (const FramePtr f = cache.lookup(pc)) {
                EXPECT_EQ(f->startPc, pc);
            }
            break;
        }
        ASSERT_LE(cache.occupiedUops(), cache.capacityUops());
    }
    // Conservation: every resident frame was inserted and neither
    // evicted nor invalidated.
    const uint64_t inserts = cache.stats().counter("inserts").value();
    const uint64_t evictions =
        cache.stats().counter("evictions").value();
    const uint64_t invalidations =
        cache.stats().counter("invalidations").value();
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(cache.numFrames(), inserts - evictions - invalidations);
    expectConsistentOccupancy(cache, universe);
}

TEST(RePlayEngine, SustainedChurnUnderTinyCacheStaysConsistent)
{
    // A deliberately undersized frame cache keeps the sequencer's
    // deposit path (insert -> evict churn) and the pooled-frame
    // recycling loop hot for the whole run.
    EngineConfig cfg;
    cfg.fcacheCapacityUops = 96;
    RePlayEngine engine(cfg);

    const auto &w = trace::findWorkload("crafty");
    const auto prog = w.buildProgram(0);
    trace::ExecutorTraceSource src(prog, 60000);
    uint64_t now = 0;
    uint64_t served = 0;
    while (!src.done()) {
        const TraceRecord rec = *src.peek();
        engine.observeRetired(rec, ++now);
        if ((now & 255) == 0 && engine.frameFor(rec.pc, now))
            ++served;
        ASSERT_LE(engine.cache().occupiedUops(),
                  engine.cache().capacityUops());
        src.advance();
    }

    auto &stats = engine.cache().stats();
    const uint64_t inserts = stats.counter("inserts").value();
    const uint64_t evictions = stats.counter("evictions").value();
    const uint64_t invalidations =
        stats.counter("invalidations").value();
    EXPECT_GT(inserts, 0u);
    EXPECT_GT(evictions, 0u);
    EXPECT_EQ(engine.cache().numFrames(),
              inserts - evictions - invalidations);
    (void)served;
}

// ---------------------------------------------------------------------
// Shape-then-materialize construction against the eager constructor
// ---------------------------------------------------------------------

namespace {

/**
 * The frame constructor as it was before construction was split into
 * observeShape() and materialize(): every instruction is translated,
 * converted and copied into the accumulation as it retires.  Kept
 * verbatim (renamed) as the reference the split constructor must
 * reproduce field for field.
 */
class EagerConstructor
{
  public:
    explicit EagerConstructor(ConstructorConfig cfg = {})
        : cfg_(cfg),
          bias_(cfg.biasEntries, cfg.biasMinSamples, cfg.biasPromoteNum,
                cfg.biasPromoteDen),
          targets_(cfg.targetEntries, cfg.targetStableThreshold)
    {
    }

    std::optional<FrameCandidate>
    observe(const TraceRecord &rec)
    {
        using uop::Op;
        using uop::Uop;
        using x86::Mnem;
        const x86::Inst &in = rec.inst;

        // ---- learning ----------------------------------------------
        if (in.isCondBranch())
            bias_.record(rec.pc, rec.taken);
        const bool is_indirect =
            (in.mnem == Mnem::JMP && in.form != x86::Form::REL) ||
            (in.mnem == Mnem::CALL && in.form != x86::Form::REL) ||
            in.mnem == Mnem::RET;
        if (is_indirect)
            targets_.record(rec.pc, rec.nextPc);

        // ---- hard frame terminators ----------------------------------
        if (in.mnem == Mnem::LONGFLOW)
            return finish(rec.pc, false);

        flowScratch_.clear();
        translator_.translate(in, rec.pc, rec.pc + rec.length,
                              flowScratch_);
        std::vector<Uop> &flow = flowScratch_;

        // ---- size limit ----------------------------------------------
        std::optional<FrameCandidate> completed;
        if (acc_.uops.size() + flow.size() > cfg_.maxUops)
            completed = finish(rec.pc, false);

        // ---- conditional branches -----------------------------------
        if (in.isCondBranch()) {
            const BranchBias bb = bias_.classify(rec.pc);
            const bool promotable =
                (bb == BranchBias::BIASED_TAKEN && rec.taken) ||
                (bb == BranchBias::BIASED_NOT_TAKEN && !rec.taken);
            if (!promotable) {
                auto before = finish(rec.pc, false);
                return completed ? completed : before;
            }
            Uop &br = flow.back();
            panic_if(br.op != Op::BR, "branch flow must end in BR");
            const uint32_t taken_target = br.target;
            br.op = Op::ASSERT;
            br.cc = rec.taken ? br.cc : x86::invert(br.cc);
            br.target = 0;
            const bool backward = rec.taken && taken_target <= rec.pc;
            append(rec, flow);
            ++curBlock_;
            if (backward) {
                auto done = finish(rec.nextPc, false, true);
                return completed ? completed : done;
            }
            return completed;
        }

        // ---- indirect jumps -------------------------------------------
        if (is_indirect) {
            Uop &jmpi = flow.back();
            panic_if(jmpi.op != Op::JMPI, "indirect flow must end in JMPI");
            const uint32_t stable = targets_.stableTarget(rec.pc);
            if (stable != 0 && stable == rec.nextPc) {
                jmpi.op = Op::ASSERT;
                jmpi.cc = x86::Cond::E;
                jmpi.valueAssert = true;
                jmpi.assertOp = Op::CMP;
                jmpi.imm = int32_t(stable);
                append(rec, flow);
                ++curBlock_;
                return completed;
            }
            append(rec, flow);
            auto done = finish(rec.nextPc, true, true);
            return completed ? completed : done;
        }

        // ---- direct jumps and calls continue the frame -----------------
        append(rec, flow);
        if (in.isControl())
            ++curBlock_;
        return completed;
    }

    void
    recycle(FrameCandidate &&cand)
    {
        clearCandidate(cand);
        spare_ = std::move(cand);
    }

    uint64_t candidatesEmitted() const { return emitted_; }
    uint64_t tooSmallDiscarded() const { return tooSmall_; }

  private:
    static void
    clearCandidate(FrameCandidate &cand)
    {
        cand.startPc = 0;
        cand.nextPc = 0;
        cand.dynamicExit = false;
        cand.closedByIncludedInst = false;
        cand.numBlocks = 1;
        cand.uops.clear();
        cand.blocks.clear();
        cand.pcs.clear();
        cand.records.clear();
    }

    void
    abandon()
    {
        clearCandidate(acc_);
        curBlock_ = 0;
    }

    std::optional<FrameCandidate>
    finish(uint32_t next_pc, bool dynamic_exit,
           bool closed_by_included = false)
    {
        if (acc_.uops.empty()) {
            abandon();
            return std::nullopt;
        }
        if (acc_.uops.size() < cfg_.minUops) {
            ++tooSmall_;
            abandon();
            return std::nullopt;
        }
        FrameCandidate out = std::move(acc_);
        out.nextPc = next_pc;
        out.dynamicExit = dynamic_exit;
        out.closedByIncludedInst = closed_by_included;
        out.numBlocks = curBlock_ + 1;
        acc_ = std::move(spare_);
        spare_ = FrameCandidate{};
        abandon();
        ++emitted_;
        return out;
    }

    void
    append(const TraceRecord &rec, const std::vector<uop::Uop> &flow)
    {
        if (acc_.uops.empty())
            acc_.startPc = rec.pc;
        const uint16_t inst_idx = uint16_t(acc_.pcs.size());
        for (const auto &u : flow) {
            acc_.blocks.push_back(curBlock_);
            acc_.uops.push_back(u);
            acc_.uops.back().instIdx = inst_idx;
        }
        acc_.pcs.push_back(rec.pc);
        acc_.records.push_back(rec);
    }

    ConstructorConfig cfg_;
    BiasTable bias_;
    TargetTable targets_;
    uop::Translator translator_;
    FrameCandidate acc_;
    FrameCandidate spare_;
    std::vector<uop::Uop> flowScratch_;
    uint16_t curBlock_ = 0;
    uint64_t emitted_ = 0;
    uint64_t tooSmall_ = 0;
};

bool
isIndirectInst(const x86::Inst &in)
{
    using x86::Mnem;
    return (in.mnem == Mnem::JMP && in.form != x86::Form::REL) ||
           (in.mnem == Mnem::CALL && in.form != x86::Form::REL) ||
           in.mnem == Mnem::RET;
}

std::vector<uint8_t>
recordBytes(const TraceRecord &rec)
{
    uint8_t buf[trace::wire::MAX_RECORD_BYTES];
    return std::vector<uint8_t>(buf,
                                buf + trace::wire::encodeRecord(rec, buf));
}

/** Every field of @p got equals @p want's; false (and a failure) if not. */
bool
sameCandidate(const FrameCandidate &got, const FrameCandidate &want,
              const std::string &where)
{
    bool same = got.startPc == want.startPc && got.nextPc == want.nextPc &&
                got.dynamicExit == want.dynamicExit &&
                got.closedByIncludedInst == want.closedByIncludedInst &&
                got.numBlocks == want.numBlocks &&
                got.numUops == want.uops.size() && got.uops == want.uops &&
                got.blocks == want.blocks && got.pcs == want.pcs &&
                got.instUops.size() == want.pcs.size() &&
                got.records.size() == want.records.size();
    for (size_t i = 0; same && i < got.records.size(); ++i)
        same = recordBytes(got.records[i]) == recordBytes(want.records[i]);
    // instUops[i] is the number of instruction i's µops in the body.
    std::vector<unsigned> inst_uops(want.pcs.size(), 0);
    for (const uop::Uop &u : want.uops)
        ++inst_uops[u.instIdx];
    for (size_t i = 0; same && i < inst_uops.size(); ++i)
        same = got.instUops[i] == inst_uops[i];
    if (!same) {
        ADD_FAILURE() << where << ": candidate at 0x" << std::hex
                      << want.startPc << std::dec << " (" << want.uops.size()
                      << " uops, " << want.pcs.size()
                      << " insts) differs from the eager constructor's";
    }
    return same;
}

/** Which of the constructor's edge cases a stream exercised. */
struct EdgeCoverage
{
    uint64_t candidates = 0;
    uint64_t longflowCloses = 0;    ///< closed by a LONGFLOW record
    uint64_t backwardCloses = 0;    ///< ends with a loop back-edge assert
    uint64_t dynamicExits = 0;      ///< ends with an unstable indirect
    uint64_t stableIndirectBySize = 0; ///< stable indirect last, size close
    uint64_t exactlyMinUops = 0;
    uint64_t doubleCloses = 0;      ///< one record closed two candidates
    uint64_t selfLoopCloses = 0;    ///< ends with a JCC whose target is itself
    uint64_t forwardTakenInside = 0; ///< holds a taken forward JCC, not last
};

/**
 * Feed @p records to the eager reference, to observeShape() (given
 * each record's µop count, as a fetch path passes it) + materialize()
 * and to observe(); every candidate and both counts must agree.  Stops
 * at the first divergence.
 */
EdgeCoverage
expectEquivalent(trace::TraceSource &src, const ConstructorConfig &cfg,
                 const std::string &label)
{
    EagerConstructor ref(cfg);
    FrameConstructor split(cfg);
    FrameConstructor eager_api(cfg);
    const uop::Translator translator;
    std::vector<uop::Uop> flow;
    EdgeCoverage cov;
    uint64_t n = 0;
    for (; !src.done(); src.advance(), ++n) {
        const TraceRecord &rec = *src.peek();
        const std::string where = label + " record " + std::to_string(n);
        const uint64_t emitted_before = ref.candidatesEmitted();
        std::optional<FrameCandidate> want = ref.observe(rec);
        flow.clear();
        const unsigned num_uops = translator.translate(
            rec.inst, rec.pc, rec.pc + rec.length, flow);
        FrameCandidate *got = split.observeShape(rec, num_uops);
        std::optional<FrameCandidate> via_observe = eager_api.observe(rec);
        if (want.has_value() != (got != nullptr) ||
            want.has_value() != via_observe.has_value()) {
            ADD_FAILURE() << where << ": a candidate closed on one path only";
            return cov;
        }
        if (ref.candidatesEmitted() - emitted_before == 2)
            ++cov.doubleCloses;
        if (!want)
            continue;
        split.materialize(*got);
        if (!sameCandidate(*got, *want, where + " (observeShape)") ||
            !sameCandidate(*via_observe, *want, where + " (observe)"))
            return cov;
        eager_api.recycle(std::move(*via_observe));

        ++cov.candidates;
        const x86::Inst &last = want->records.back().inst;
        cov.longflowCloses += rec.inst.mnem == x86::Mnem::LONGFLOW;
        cov.backwardCloses +=
            want->closedByIncludedInst && last.isCondBranch();
        cov.dynamicExits += want->dynamicExit;
        cov.stableIndirectBySize +=
            !want->dynamicExit && isIndirectInst(last) &&
            !rec.inst.isCondBranch() &&
            rec.inst.mnem != x86::Mnem::LONGFLOW;
        cov.exactlyMinUops += want->uops.size() == cfg.minUops;
        cov.selfLoopCloses += want->closedByIncludedInst &&
                              last.isCondBranch() &&
                              last.target == want->records.back().pc;
        for (size_t i = 0; i + 1 < want->records.size(); ++i) {
            const TraceRecord &r = want->records[i];
            if (r.inst.isCondBranch() && r.taken && r.inst.target > r.pc) {
                ++cov.forwardTakenInside;
                break;
            }
        }
        ref.recycle(std::move(*want));
    }
    EXPECT_EQ(split.candidatesEmitted(), ref.candidatesEmitted()) << label;
    EXPECT_EQ(split.tooSmallDiscarded(), ref.tooSmallDiscarded()) << label;
    EXPECT_EQ(eager_api.candidatesEmitted(), ref.candidatesEmitted())
        << label;
    EXPECT_EQ(eager_api.tooSmallDiscarded(), ref.tooSmallDiscarded())
        << label;
    return cov;
}

/**
 * Hand-built record streams over a small program holding one
 * instruction of every kind the constructor treats specially.  The
 * records need not be an execution of the program: the constructor
 * reads only each record's instruction, PC, length, direction and
 * next PC.
 */
class EdgeStream
{
  public:
    EdgeStream()
    {
        AsmBuilder b;
        b.label("top");
        for (unsigned i = 0; i < ALUS; ++i) {
            alu_[i] = b.here();
            b.addRI(Reg::EAX, int32_t(i + 1));
        }
        back_ = b.here();
        b.jcc(Cond::NE, "top");
        b.label("self");
        self_ = b.here();
        b.jcc(Cond::NE, "self");
        fwd_ = b.here();
        b.jcc(Cond::E, "after");
        b.label("after");
        ret_ = b.here();
        b.ret();
        jmpr_ = b.here();
        b.jmpR(Reg::EBX);
        callr_ = b.here();
        b.callR(Reg::EBX);
        longflow_ = b.here();
        b.longflow();
        prog_ = std::make_unique<x86::Program>(b.build());
    }

    static constexpr unsigned ALUS = 300;

    /** µops of one ALU / RET / indirect CALL instruction. */
    unsigned aluUops() const { return uopsAt(alu_[0]); }
    unsigned retUops() const { return uopsAt(ret_); }
    unsigned callRUops() const { return uopsAt(callr_); }

    /** @p count straight-line ALU records. */
    void
    alus(unsigned count)
    {
        for (unsigned i = 0; i < count; ++i)
            push(alu_[(next_++) % ALUS], 0, false);
    }
    void backEdge(bool taken) { push(back_, 0, taken); }
    /** A JCC whose target is its own PC. */
    void selfLoop(bool taken) { push(self_, 0, taken); }
    void forward(bool taken) { push(fwd_, 0, taken); }
    void ret(uint32_t target) { push(ret_, target, true); }
    void jmpR(uint32_t target) { push(jmpr_, target, true); }
    void callR(uint32_t target) { push(callr_, target, true); }
    void longflow() { push(longflow_, 0, false); }

    trace::VectorTraceSource
    source() const
    {
        return trace::VectorTraceSource(records_);
    }

  private:
    unsigned
    uopsAt(uint32_t pc) const
    {
        const auto &placed = prog_->at(pc);
        return unsigned(uop::Translator().translate(placed.inst, pc,
                                                    pc + placed.length)
                            .size());
    }

    void
    push(uint32_t pc, uint32_t next_pc, bool taken)
    {
        const auto &placed = prog_->at(pc);
        TraceRecord rec;
        rec.pc = pc;
        rec.inst = placed.inst;
        rec.length = uint8_t(placed.length);
        rec.taken = taken;
        rec.nextPc = next_pc ? next_pc : pc + placed.length;
        if (taken && placed.inst.isCondBranch())
            rec.nextPc = placed.inst.target;
        records_.push_back(rec);
    }

    std::unique_ptr<x86::Program> prog_;
    uint32_t alu_[ALUS] = {};
    uint32_t back_ = 0, self_ = 0, fwd_ = 0, ret_ = 0, jmpr_ = 0;
    uint32_t callr_ = 0;
    uint32_t longflow_ = 0;
    unsigned next_ = 0;
    std::vector<TraceRecord> records_;
};

} // namespace

TEST(FrameConstructorEquivalence, StandardTracesMatchEagerConstruction)
{
    unsigned traces = 0;
    EdgeCoverage total;
    for (const trace::Workload &w : trace::standardWorkloads()) {
        for (unsigned t = 0; t < w.numTraces; ++t, ++traces) {
            auto src = w.openTrace(t, 100000);
            const EdgeCoverage cov = expectEquivalent(
                *src, {}, std::string(w.name) + "." + std::to_string(t));
            total.candidates += cov.candidates;
            total.dynamicExits += cov.dynamicExits;
            total.backwardCloses += cov.backwardCloses;
        }
    }
    EXPECT_EQ(traces, 24u);
    EXPECT_GT(total.candidates, 10000u);
    EXPECT_GT(total.dynamicExits, 0u);
    EXPECT_GT(total.backwardCloses, 0u);
}

TEST(FrameConstructorEquivalence, HandBuiltEdgeStreamsMatchEagerConstruction)
{
    const ConstructorConfig cfg;    // minUops 8, maxUops 256
    EdgeStream s;
    ASSERT_EQ(cfg.minUops % s.aluUops(), 0u) << "exact-minUops case";
    const unsigned fill =
        (cfg.maxUops - s.retUops()) / s.aluUops(); // RET lands at the cap
    ASSERT_EQ(fill * s.aluUops() + s.retUops(), cfg.maxUops);
    for (unsigned rep = 0; rep < 60; ++rep) {
        // A RET whose target turns stable after targetStableThreshold
        // repeats, followed by the ALU that overflows the size limit:
        // first dynamic exits, then stable value asserts as the last
        // instruction of a size-limited candidate.
        s.longflow();
        s.alus(fill);
        s.ret(0x00401000);
        s.alus(4);
        // An indirect jump whose target never settles: always the
        // dynamic exit of its candidate.
        s.longflow();
        s.alus(12);
        s.jmpR(rep % 2 ? 0x00402000 : 0x00403000);
        // A loop back-edge (promoted once the bias table has its
        // samples; before that it closes the candidate in front of it),
        // with a biased forward branch inside.
        s.longflow();
        s.alus(6);
        s.forward(false);
        s.alus(6);
        s.backEdge(true);
        // Exactly minUops, and one µop short of it.
        s.longflow();
        s.alus(cfg.minUops / s.aluUops());
        s.longflow();
        s.alus(cfg.minUops / s.aluUops() - 1);
    }
    auto src = s.source();
    const EdgeCoverage cov = expectEquivalent(src, cfg, "edge/default");
    EXPECT_GT(cov.stableIndirectBySize, 0u);
    EXPECT_GT(cov.dynamicExits, 0u);
    EXPECT_GT(cov.longflowCloses, 0u);
    EXPECT_GT(cov.backwardCloses, 0u);
    EXPECT_GT(cov.exactlyMinUops, 0u);

    // Small frames: an unstable RET that overflows the size limit
    // closes the accumulation in front of it and then, alone, a
    // dynamic-exit candidate of its own.
    ConstructorConfig small;
    small.minUops = 2;
    small.maxUops = 12;
    small.biasMinSamples = 4;
    small.targetStableThreshold = 2;
    EdgeStream t;
    ASSERT_GE(t.retUops(), small.minUops);
    ASSERT_LT(t.callRUops(), small.maxUops);
    ASSERT_EQ((small.maxUops - t.callRUops()) % t.aluUops(), 0u);
    for (unsigned rep = 0; rep < 60; ++rep) {
        t.longflow();
        t.alus(small.maxUops / t.aluUops());
        t.ret(rep % 2 ? 0x00402000 : 0x00403000);
        // A stable indirect call filling the candidate to the cap.
        t.longflow();
        t.alus((small.maxUops - t.callRUops()) / t.aluUops());
        t.callR(0x00401000);
        t.alus(2);
        // A back-edge behind a full accumulation.
        t.alus(small.maxUops);
        t.backEdge(true);
    }
    auto small_src = t.source();
    const EdgeCoverage small_cov =
        expectEquivalent(small_src, small, "edge/small");
    EXPECT_GT(small_cov.doubleCloses, 0u);
    EXPECT_GT(small_cov.stableIndirectBySize, 0u);
    EXPECT_GT(small_cov.dynamicExits, 0u);
}

// observeShape() decides loop-back closure from the JCC's own target
// (the BR µop's target is copied from it): a taken JCC closes the
// candidate when its target is at or before its PC, including a JCC
// that branches to itself, and a taken forward JCC does not.
TEST(FrameConstructorEquivalence, LoopBackRuleUsesTheBranchTarget)
{
    const ConstructorConfig cfg;
    EdgeStream s;
    for (unsigned rep = 0; rep < 80; ++rep) {
        s.alus(8);
        s.backEdge(true);
        s.alus(8);
        s.selfLoop(true);
        s.alus(6);
        s.forward(true);
        s.alus(6);
        s.longflow();
    }
    auto src = s.source();
    const EdgeCoverage cov = expectEquivalent(src, cfg, "edge/loop-back");
    EXPECT_GT(cov.backwardCloses, cov.selfLoopCloses);
    EXPECT_GT(cov.selfLoopCloses, 0u);
    EXPECT_GT(cov.forwardTakenInside, 0u);
}
