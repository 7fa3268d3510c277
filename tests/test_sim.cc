/**
 * @file
 * End-to-end simulator tests: the four machine configurations run the
 * synthesized workloads and must reproduce the paper's qualitative
 * results — rePLay+Optimization fastest almost everywhere, meaningful
 * micro-op/load reduction, high SPEC frame coverage, small assert-cycle
 * shares, and deterministic results.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <deque>
#include <map>
#include <stdexcept>

#include "sim/runner.hh"
#include "sim/tracecachefill.hh"
#include "util/logging.hh"

using namespace replay;
using namespace replay::sim;
using timing::CycleBin;

namespace {

RunStats
quickRun(const std::string &workload, Machine machine,
         uint64_t insts = 120000)
{
    return runWorkload(trace::findWorkload(workload),
                       SimConfig::make(machine), insts);
}

} // namespace

TEST(Configs, FactoryMatchesSection53)
{
    const auto ic = SimConfig::make(Machine::IC);
    EXPECT_EQ(ic.pipe.icacheBytes, 64u * 1024);
    EXPECT_FALSE(ic.usesFrames());
    EXPECT_FALSE(ic.usesTraceCache());

    const auto tc = SimConfig::make(Machine::TC);
    EXPECT_EQ(tc.pipe.icacheBytes, 8u * 1024);
    EXPECT_TRUE(tc.usesTraceCache());
    EXPECT_EQ(tc.tcCapacityUops, 16384u);
    EXPECT_EQ(tc.tcMaxBranches, 3u);

    const auto rp = SimConfig::make(Machine::RP);
    EXPECT_TRUE(rp.usesFrames());
    EXPECT_FALSE(rp.engine.optimize);
    EXPECT_EQ(rp.engine.fcacheCapacityUops, 16384u);

    const auto rpo = SimConfig::make(Machine::RPO);
    EXPECT_TRUE(rpo.engine.optimize);
}

TEST(Simulator, BinsSumToCycles)
{
    for (const Machine m :
         {Machine::IC, Machine::TC, Machine::RP, Machine::RPO}) {
        const auto stats = quickRun("crafty", m, 60000);
        EXPECT_EQ(stats.bins.total(), stats.cycles());
        EXPECT_GT(stats.ipc(), 0.3);
        EXPECT_EQ(stats.x86Retired, 60000u);
    }
}

TEST(Simulator, Deterministic)
{
    const auto a = quickRun("vortex", Machine::RPO, 60000);
    const auto b = quickRun("vortex", Machine::RPO, 60000);
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.uopsExecuted, b.uopsExecuted);
    EXPECT_EQ(a.frameCommits, b.frameCommits);
    EXPECT_EQ(a.frameAborts, b.frameAborts);
}

TEST(Simulator, OptimizationRemovesUopsAndLoads)
{
    const auto rpo = quickRun("bzip2", Machine::RPO);
    EXPECT_GT(rpo.uopReduction(), 0.10);
    EXPECT_LT(rpo.uopReduction(), 0.55);
    EXPECT_GT(rpo.loadReduction(), 0.08);

    // Plain rePLay removes nothing.
    const auto rp = quickRun("bzip2", Machine::RP);
    EXPECT_DOUBLE_EQ(rp.uopReduction(), 0.0);
}

TEST(Simulator, RpoBeatsRpBeatsIc)
{
    // The headline ordering on a representative workload.
    const auto ic = quickRun("eon", Machine::IC);
    const auto rp = quickRun("eon", Machine::RP);
    const auto rpo = quickRun("eon", Machine::RPO);
    EXPECT_GT(rp.ipc(), ic.ipc());
    EXPECT_GT(rpo.ipc(), rp.ipc() * 1.05);
}

TEST(Simulator, HighFrameCoverageOnSpec)
{
    const auto stats = quickRun("crafty", Machine::RPO);
    EXPECT_GT(stats.coverage(), 0.80);
    EXPECT_GT(stats.frameCommits, 500u);
}

TEST(Simulator, AssertCyclesBounded)
{
    // §6.1: assertion recovery is a small share of execution.
    for (const char *name : {"crafty", "vortex", "excel"}) {
        const auto stats = quickRun(name, Machine::RPO);
        const double share =
            double(stats.bins.get(CycleBin::ASSERT)) /
            double(stats.cycles());
        EXPECT_LT(share, 0.12) << name;
    }
}

TEST(Simulator, UnsafeStoreConflictsOnlyWithSpeculation)
{
    // Excel's aliasing pattern produces unsafe-store aborts under RPO;
    // plain rePLay never marks stores unsafe.
    const auto rp = quickRun("excel", Machine::RP);
    EXPECT_EQ(rp.unsafeConflicts, 0u);
    const auto rpo = quickRun("excel", Machine::RPO, 200000);
    EXPECT_GT(rpo.unsafeConflicts, 0u);
}

TEST(Simulator, TraceCacheUsesFramesBin)
{
    const auto tc = quickRun("gzip", Machine::TC);
    EXPECT_GT(tc.bins.get(CycleBin::FRAME), tc.cycles() / 4);
    EXPECT_EQ(tc.frameAborts, 0u);      // traces never abort
    EXPECT_EQ(tc.uopReduction(), 0.0);  // and never optimize
}

TEST(Simulator, MispredictsDropInsideFrames)
{
    // Promoted branches don't consult the predictor, so RP sees far
    // fewer mispredict events than IC on branchy code.
    const auto ic = quickRun("crafty", Machine::IC);
    const auto rp = quickRun("crafty", Machine::RP);
    // Branch instances inside committed frames never charge a
    // prediction penalty, so charged events are a strict subset of the
    // conventional machine's.
    EXPECT_LT(rp.mispredicts * 4, ic.mispredicts * 3);
}

TEST(Simulator, MultiTraceWorkloadsMerge)
{
    // Excel has three hot-spot traces; the merged run retires from all.
    const auto stats = runWorkload(trace::findWorkload("excel"),
                                   SimConfig::make(Machine::IC), 30000);
    EXPECT_EQ(stats.x86Retired, 3u * 30000u);
}

TEST(Simulator, BlockScopeUnderperformsFrameScope)
{
    // The Figure 9 relation, end to end.
    auto frame_cfg = SimConfig::make(Machine::RPO);
    auto block_cfg = SimConfig::make(Machine::RPO);
    block_cfg.engine.optConfig.scope = opt::Scope::BLOCK;

    const auto &w = trace::findWorkload("vortex");
    const auto frame_run = runWorkload(w, frame_cfg, 120000);
    const auto block_run = runWorkload(w, block_cfg, 120000);
    EXPECT_GT(frame_run.uopReduction(), block_run.uopReduction());
    EXPECT_GE(frame_run.ipc(), block_run.ipc() * 0.98);
}

TEST(Simulator, DisablingReassociationHurtsMemoryOpts)
{
    // §6.4: RA is the gateway optimization — without it, store
    // forwarding and CSE find far fewer symbolically-equal addresses.
    auto all_on = SimConfig::make(Machine::RPO);
    auto no_ra = SimConfig::make(Machine::RPO);
    no_ra.engine.optConfig = opt::OptConfig::without("RA");

    const auto &w = trace::findWorkload("crafty");
    const auto on = runWorkload(w, all_on, 120000);
    const auto off = runWorkload(w, no_ra, 120000);
    EXPECT_GT(on.loadReduction(), off.loadReduction());
    EXPECT_GT(on.uopReduction(), off.uopReduction());
}

TEST(TraceCacheFill, BuildsBoundedTraces)
{
    TraceCacheUnit unit(16384, 3, 32);
    const auto &w = trace::findWorkload("parser");
    const auto prog = w.buildProgram(0);
    x86::Executor exec(prog);
    for (unsigned i = 0; i < 30000; ++i)
        unit.observe(trace::TraceRecord::fromStep(exec.step()));
    EXPECT_GT(unit.cache().numFrames(), 5u);
    // Every built trace respects the caps.
    for (unsigned i = 0; i < 30000; ++i) {
        const auto rec = trace::TraceRecord::fromStep(exec.step());
        if (auto t = unit.lookup(rec.pc)) {
            EXPECT_LE(t->numUops(), 32u);
            unsigned branches = 0;
            for (const opt::FrameUop fu : t->body)
                branches += fu.uop.op == uop::Op::BR ||
                            fu.uop.op == uop::Op::JMPI;
            EXPECT_LE(branches, 3u);
        }
        unit.observe(rec);
    }
}

namespace {

[[noreturn]] void
throwingDeathHandler(const char *, const char *, int, const char *msg)
{
    throw std::runtime_error(msg);
}

} // anonymous namespace

TEST(Runner, EnvOverrideAndDefaults)
{
    EXPECT_GT(defaultInstsPerTrace(), 0u);
}

TEST(Runner, ParseCountAcceptsPlainDecimals)
{
    EXPECT_EQ(parseCount("1", "test"), 1u);
    EXPECT_EQ(parseCount("400000", "test"), 400000u);
    EXPECT_EQ(parseCount("18446744073709551615", "test"),
              UINT64_MAX);
}

TEST(Runner, ParseCountRejectsGarbage)
{
    // Regression: "4e5" used to silently parse as 4 via strtoull with
    // no endptr check, truncating a 400k-instruction request to 4.
    DeathHandler prev = setDeathHandler(throwingDeathHandler);
    EXPECT_THROW(parseCount("4e5", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("400k", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("-4", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("+4", "test"), std::runtime_error);
    EXPECT_THROW(parseCount(" 4", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("0", "test"), std::runtime_error);
    EXPECT_THROW(parseCount("0x10", "test"), std::runtime_error);
    // 2^64 overflows.
    EXPECT_THROW(parseCount("18446744073709551616", "test"),
                 std::runtime_error);
    setDeathHandler(prev);
}

TEST(Runner, EnvInstsParsedStrictly)
{
    std::string saved;
    if (const char *old = getenv("REPLAY_SIM_INSTS"))
        saved = old;

    setenv("REPLAY_SIM_INSTS", "12345", 1);
    EXPECT_EQ(defaultInstsPerTrace(), 12345u);

    DeathHandler prev = setDeathHandler(throwingDeathHandler);
    setenv("REPLAY_SIM_INSTS", "4e5", 1);
    EXPECT_THROW(defaultInstsPerTrace(), std::runtime_error);
    setDeathHandler(prev);

    if (saved.empty())
        unsetenv("REPLAY_SIM_INSTS");
    else
        setenv("REPLAY_SIM_INSTS", saved.c_str(), 1);
    EXPECT_GT(defaultInstsPerTrace(), 0u);
}

#include "trace/tracev3.hh"

TEST(Simulator, FileTraceMatchesLiveTrace)
{
    // Simulating from a written trace file must produce bit-identical
    // results to simulating from the live executor stream.
    const auto &w = trace::findWorkload("twolf");
    const auto prog = w.buildProgram(0);
    const std::string path = ::testing::TempDir() + "twolf.rpl3";
    trace::TraceV3Writer::dumpProgram(prog, 80000, path);

    auto cfg = SimConfig::make(Machine::RPO);
    trace::ExecutorTraceSource live(prog, 80000);
    const auto live_stats = simulateTrace(cfg, live, "twolf");

    trace::TraceV3Source filed(path);
    const auto file_stats = simulateTrace(cfg, filed, "twolf");

    EXPECT_EQ(live_stats.cycles(), file_stats.cycles());
    EXPECT_EQ(live_stats.uopsExecuted, file_stats.uopsExecuted);
    EXPECT_EQ(live_stats.frameCommits, file_stats.frameCommits);
    EXPECT_EQ(live_stats.mispredicts, file_stats.mispredicts);
}

// Work counter for the timing model: issue-slot ring probes over one
// fig6 trace (gzip hot spot 0, perfbench's 100k-instruction budget)
// in every machine column.  Dispatch and retirement are cursors and
// probe nothing, so only the out-of-order issue search counts: 1.00,
// 5.86, 1.84 and 1.15 probes per µop here, 2.07 over the whole fig6
// grid.  The occupancy-ring scheduler this replaced also walked rings
// for dispatch and retirement (4.15 per µop over fig6).  A change that
// moves these counts changes the timing model's work and must say why.
TEST(Simulator, TimingRingProbesArePinned)
{
    struct Pin
    {
        Machine machine;
        uint64_t uops;
        uint64_t probes;
    };
    const Pin pins[] = {
        {Machine::IC, 117381, 117547},
        {Machine::TC, 117381, 687932},
        {Machine::RP, 118459, 217387},
        {Machine::RPO, 98785, 113315},
    };
    for (const Pin &pin : pins) {
        auto src = trace::findWorkload("gzip").openTrace(0, 100000);
        Simulator sim(SimConfig::make(pin.machine));
        sim.run(*src);
        const timing::ExecModel &exec = sim.execModel();
        EXPECT_EQ(exec.uopsRetired(), pin.uops) << machineName(pin.machine);
        EXPECT_EQ(exec.ringProbes(), pin.probes)
            << machineName(pin.machine);
    }
}

// Work counter for frame construction: on gzip.0 at 100k instructions
// the constructor closes 7382 candidates and the engine keeps 12 (the
// rest duplicate a cached or pending frame at least as long; RPO's
// five extra are optimizer-pipeline drops), and only kept candidates
// get a µop body.  A change that moves these counts changes how much
// construction work is done and must say why.
TEST(Simulator, CandidateWorkCountersArePinned)
{
    struct Pin
    {
        Machine machine;
        uint64_t emitted;
        uint64_t duplicates;
        uint64_t materialized;
    };
    const Pin pins[] = {
        {Machine::RP, 7382, 7370, 12},
        {Machine::RPO, 7382, 7365, 12},
    };
    for (const Pin &pin : pins) {
        auto src = trace::findWorkload("gzip").openTrace(0, 100000);
        Simulator sim(SimConfig::make(pin.machine));
        sim.run(*src);
        core::RePlayEngine &engine = *sim.engine();
        const uint64_t materialized =
            engine.stats().get("materialized_candidates");
        EXPECT_EQ(engine.constructor().candidatesEmitted(), pin.emitted)
            << machineName(pin.machine);
        EXPECT_EQ(engine.stats().get("duplicate_candidates"),
                  pin.duplicates)
            << machineName(pin.machine);
        EXPECT_EQ(materialized, pin.materialized)
            << machineName(pin.machine);
        EXPECT_EQ(materialized, engine.stats().get("candidates"))
            << machineName(pin.machine);
        // Every emitted candidate is either a duplicate, dropped by a
        // saturated optimizer pipeline, or kept.
        EXPECT_EQ(engine.constructor().candidatesEmitted(),
                  pin.duplicates + engine.stats().get("optimizer_drops") +
                      materialized)
            << machineName(pin.machine);
    }
}

// Work counter for x86->µop decode: translate() calls on gzip.0 at
// 100k instructions in every machine column.  Each retired instruction
// is decoded once, by the fetch path that retires it from the
// conventional path; a frame or trace hands its recorded counts to
// the frame constructor and the fill unit, which translate only the
// frames they build and the traces they insert.  A change that moves
// these counts changes how much decode work is done and must say why.
TEST(Simulator, TranslationsArePinned)
{
    struct Pin
    {
        Machine machine;
        uint64_t translations;
    };
    const Pin pins[] = {
        {Machine::IC, 100000},
        {Machine::TC, 828},
        {Machine::RP, 2242},
        {Machine::RPO, 3708},
    };
    for (const Pin &pin : pins) {
        auto src = trace::findWorkload("gzip").openTrace(0, 100000);
        Simulator sim(SimConfig::make(pin.machine));
        sim.run(*src);
        EXPECT_EQ(sim.translations(), pin.translations)
            << machineName(pin.machine);
    }
}

// A frame records how many µops each of its instructions translates
// to, so its committed instructions reach the frame constructor
// without being decoded again; the counts must be the translations'
// lengths and add up to the unoptimized body's size.
TEST(Simulator, CachedFramesCarryTheirInstructionsUopCounts)
{
    const auto &w = trace::findWorkload("gzip");
    auto src = w.openTrace(0, 100000);
    Simulator sim(SimConfig::make(Machine::RPO));
    sim.run(*src);

    std::map<uint32_t, trace::TraceRecord> by_pc;
    for (auto again = w.openTrace(0, 100000); !again->done();
         again->advance())
        by_pc.emplace(again->peek()->pc, *again->peek());
    const uop::Translator translator;
    unsigned frames = 0;
    for (const auto &[pc, unused] : by_pc) {
        const core::FramePtr frame = sim.engine()->cache().probe(pc);
        if (!frame)
            continue;
        ++frames;
        ASSERT_EQ(frame->instUops.size(), frame->pcs.size());
        unsigned sum = 0;
        for (size_t i = 0; i < frame->pcs.size(); ++i) {
            const trace::TraceRecord &rec = by_pc.at(frame->pcs[i]);
            EXPECT_EQ(frame->instUops[i],
                      translator.translate(rec.inst, rec.pc,
                                           rec.pc + rec.length).size());
            sum += frame->instUops[i];
        }
        EXPECT_EQ(sum, frame->body.inputUops) << "frame at 0x" << std::hex
                                              << pc;
    }
    EXPECT_GT(frames, 5u);
}

// ---------------------------------------------------------------------
// Shape-only trace fill against the eager fill unit
// ---------------------------------------------------------------------

namespace {

/**
 * The fill unit as it was before it became shape-only: every observed
 * instruction is translated and appended to the accumulating trace.
 * Kept verbatim (renamed) as the reference the shape-only unit must
 * reproduce trace for trace.
 */
class EagerTraceCacheUnit
{
  public:
    EagerTraceCacheUnit(unsigned capacity_uops, unsigned max_branches,
                        unsigned max_uops)
        : maxBranches_(max_branches), maxUops_(max_uops),
          cache_(capacity_uops)
    {
    }

    void
    observe(const trace::TraceRecord &rec)
    {
        using x86::Form;
        using x86::Mnem;
        const x86::Inst &in = rec.inst;
        if (in.mnem == Mnem::LONGFLOW) {
            finishTrace(rec.pc);
            return;
        }

        flow_.clear();
        translator_.translate(in, rec.pc, rec.pc + rec.length, flow_);
        if (uops_.size() + flow_.size() > maxUops_)
            finishTrace(rec.pc);

        if (uops_.empty())
            startPc_ = rec.pc;
        const uint16_t inst_idx = uint16_t(pcs_.size());
        for (uop::Uop &u : flow_) {
            u.instIdx = inst_idx;
            uops_.push_back(u);
        }
        pcs_.push_back(rec.pc);

        const bool is_branch_uop =
            in.isCondBranch() ||
            (in.mnem == Mnem::JMP && in.form != Form::REL) ||
            (in.mnem == Mnem::CALL && in.form != Form::REL) ||
            in.mnem == Mnem::RET;
        if (is_branch_uop) {
            ++branches_;
            if (branches_ >= maxBranches_)
                finishTrace(rec.nextPc);
        }
    }

    core::FrameCache &cache() { return cache_; }

  private:
    void
    finishTrace(uint32_t next_pc)
    {
        if (uops_.size() >= 4) {
            const core::FramePtr existing = cache_.probe(startPc_);
            if (!existing || existing->pcs.size() < pcs_.size()) {
                auto trace_frame = std::make_shared<core::Frame>();
                trace_frame->id = nextId_++;
                trace_frame->startPc = startPc_;
                trace_frame->pcs = pcs_;
                trace_frame->nextPc = next_pc;
                trace_frame->dynamicExit = true;
                trace_frame->body = opt::Optimizer::passthrough(
                    uops_, {}, /*frame_semantics=*/false);
                cache_.insert(std::move(trace_frame));
            }
        }
        uops_.clear();
        pcs_.clear();
        branches_ = 0;
    }

    unsigned maxBranches_;
    unsigned maxUops_;
    uop::Translator translator_;
    core::FrameCache cache_;

    std::vector<uop::Uop> flow_;
    std::vector<uop::Uop> uops_;
    std::vector<uint32_t> pcs_;
    uint32_t startPc_ = 0;
    unsigned branches_ = 0;
    uint64_t nextId_ = 1;
};

bool
sameBody(const opt::OptimizedFrame &a, const opt::OptimizedFrame &b)
{
    return a.code == b.code && a.srcA == b.srcA && a.srcB == b.srcB &&
           a.srcC == b.srcC && a.flagsSrc == b.flagsSrc &&
           a.unsafe == b.unsafe && a.position == b.position &&
           a.block == b.block && a.exit == b.exit &&
           a.inputUops == b.inputUops && a.inputLoads == b.inputLoads &&
           a.outputLoads == b.outputLoads;
}

/** @p got's trace starting at @p pc is @p want's, field for field. */
bool
sameTrace(const core::FramePtr &got, const core::FramePtr &want,
          const std::string &where)
{
    const bool same = got && got->id == want->id &&
                      got->startPc == want->startPc &&
                      got->pcs == want->pcs &&
                      got->nextPc == want->nextPc &&
                      got->dynamicExit == want->dynamicExit &&
                      sameBody(got->body, want->body);
    if (!same) {
        ADD_FAILURE() << where << ": trace " << want->id << " at 0x"
                      << std::hex << want->startPc << std::dec
                      << " differs from the eager fill unit's";
    }
    return same;
}

} // anonymous namespace

TEST(TraceCacheFill, ShapeOnlyFillMatchesEagerFill)
{
    const uop::Translator translator;
    std::vector<uop::Uop> flow;
    uint64_t inserts = 0;
    unsigned traces = 0;
    for (const trace::Workload &w : trace::standardWorkloads()) {
        for (unsigned t = 0; t < w.numTraces; ++t, ++traces) {
            const std::string label =
                std::string(w.name) + "." + std::to_string(t);
            EagerTraceCacheUnit ref(16384, 3, 32);
            TraceCacheUnit shape(16384, 3, 32);     // given each count
            TraceCacheUnit wrapper(16384, 3, 32);   // decodes itself
            // A closed trace starts within the last 33 records (every
            // instruction has at least one of a trace's 32 µops).
            std::deque<uint32_t> recent;
            uint64_t ref_inserts = 0;
            uint64_t n = 0;
            auto src = w.openTrace(t, 100000);
            for (; !src->done(); src->advance(), ++n) {
                const trace::TraceRecord &rec = *src->peek();
                flow.clear();
                const unsigned num_uops = translator.translate(
                    rec.inst, rec.pc, rec.pc + rec.length, flow);
                ref.observe(rec);
                shape.observe(rec, num_uops);
                wrapper.observe(rec);
                recent.push_back(rec.pc);
                if (recent.size() > 40)
                    recent.pop_front();

                const uint64_t now_inserts =
                    ref.cache().stats().get("inserts");
                const std::string where =
                    label + " record " + std::to_string(n);
                ASSERT_EQ(shape.cache().stats().get("inserts"), now_inserts)
                    << where;
                ASSERT_EQ(wrapper.cache().stats().get("inserts"),
                          now_inserts)
                    << where;
                if (now_inserts == ref_inserts)
                    continue;
                ASSERT_EQ(now_inserts, ref_inserts + 1) << where;
                ref_inserts = now_inserts;
                // The newest trace is the cached one with the highest id.
                core::FramePtr want;
                for (const uint32_t pc : recent) {
                    const core::FramePtr f = ref.cache().probe(pc);
                    if (f && (!want || f->id > want->id))
                        want = f;
                }
                ASSERT_TRUE(want) << where;
                ASSERT_TRUE(sameTrace(shape.cache().probe(want->startPc),
                                      want, where + " (shape)"));
                ASSERT_TRUE(sameTrace(wrapper.cache().probe(want->startPc),
                                      want, where + " (wrapper)"));
            }
            EXPECT_EQ(shape.cache().numFrames(), ref.cache().numFrames())
                << label;
            EXPECT_EQ(shape.cache().occupiedUops(),
                      ref.cache().occupiedUops())
                << label;
            inserts += ref_inserts;
        }
    }
    EXPECT_EQ(traces, 24u);
    EXPECT_GT(inserts, 5000u);
}

TEST(TraceCacheFill, WrongCountPanicsAtInsert)
{
    const auto &w = trace::findWorkload("parser");
    const uop::Translator translator;
    DeathHandler prev = setDeathHandler(throwingDeathHandler);
    TraceCacheUnit unit(16384, 3, 32);
    bool panicked = false;
    try {
        auto src = w.openTrace(0, 10000);
        for (; !src->done(); src->advance()) {
            const trace::TraceRecord &rec = *src->peek();
            const size_t num_uops =
                translator.translate(rec.inst, rec.pc, rec.pc + rec.length)
                    .size();
            unit.observe(rec, unsigned(num_uops) + 1);
        }
    } catch (const std::runtime_error &e) {
        panicked = true;
        EXPECT_NE(std::string(e.what()).find("fetch paths reported"),
                  std::string::npos)
            << e.what();
    }
    setDeathHandler(prev);
    EXPECT_TRUE(panicked);
    EXPECT_EQ(unit.cache().numFrames(), 0u);
}
