/**
 * @file
 * Timing-model tests: cache geometry and replacement, the branch
 * predictor composite, the out-of-order execution model's dataflow and
 * resource constraints, and fetch-cycle accounting.
 */

#include <algorithm>
#include <iterator>
#include <vector>

#include <gtest/gtest.h>

#include "timing/accounting.hh"
#include "timing/cache.hh"
#include "timing/fetch.hh"
#include "timing/predictor.hh"
#include "timing/window.hh"
#include "util/rng.hh"

using namespace replay;
using namespace replay::timing;

TEST(CacheModel, HitAfterFill)
{
    CacheModel cache("t", 1024, 64, 2, 1);
    EXPECT_FALSE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1000));
    EXPECT_TRUE(cache.access(0x1004));      // same line
    EXPECT_FALSE(cache.access(0x1040));     // next line
    EXPECT_EQ(cache.stats().get("hits"), 2u);
    EXPECT_EQ(cache.stats().get("misses"), 2u);
}

TEST(CacheModel, LruWithinSet)
{
    // 2-way, 8 sets of 64B lines: addresses 64*8 apart share a set.
    CacheModel cache("t", 1024, 64, 2, 1);
    const uint32_t stride = 64 * 8;
    cache.access(0);                // way 0
    cache.access(stride);           // way 1
    cache.access(0);                // touch way 0
    cache.access(2 * stride);       // evicts LRU = stride
    EXPECT_TRUE(cache.contains(0));
    EXPECT_FALSE(cache.contains(stride));
    EXPECT_TRUE(cache.contains(2 * stride));
}

TEST(MemoryHierarchy, LatenciesPerLevel)
{
    MemoryHierarchy mem;
    // Cold: misses everywhere -> memory latency.
    EXPECT_EQ(mem.access(0x5000), 50u);
    EXPECT_TRUE(mem.lastMissedL1());
    // Warm L1.
    EXPECT_EQ(mem.access(0x5000), 2u);
    EXPECT_FALSE(mem.lastMissedL1());
    // Evict from L1 but not L2: conflict addresses sharing an L1 set.
    // L1: 32kB/64B/4-way => 128 sets; stride = 128*64 = 8192.
    for (unsigned i = 1; i <= 4; ++i)
        mem.access(0x5000 + i * 8192);
    EXPECT_EQ(mem.access(0x5000), 10u);     // L2 hit
}

TEST(Predictor, LearnsBiasedBranch)
{
    BranchPredictor pred;
    trace::TraceRecord rec;
    rec.pc = 0x4000;
    rec.nextPc = 0x5000;
    rec.inst.mnem = x86::Mnem::JCC;
    rec.inst.form = x86::Form::REL;
    rec.inst.cc = x86::Cond::NE;
    rec.taken = true;

    unsigned early = 0, late = 0;
    for (int i = 0; i < 200; ++i) {
        const bool miss = pred.predictAndTrain(rec);
        if (i < 4)
            early += miss;
        if (i >= 100)
            late += miss;
    }
    EXPECT_GT(early, 0u);       // cold counters + BTB
    EXPECT_EQ(late, 0u);        // fully learned
}

TEST(Predictor, ReturnAddressStack)
{
    BranchPredictor pred;
    trace::TraceRecord call;
    call.pc = 0x1000;
    call.length = 5;
    call.nextPc = 0x9000;
    call.inst.mnem = x86::Mnem::CALL;
    call.inst.form = x86::Form::REL;
    call.taken = true;

    trace::TraceRecord ret;
    ret.pc = 0x9100;
    ret.nextPc = 0x1005;        // matches the pushed return address
    ret.inst.mnem = x86::Mnem::RET;
    ret.taken = true;

    pred.predictAndTrain(call);
    EXPECT_FALSE(pred.predictAndTrain(ret));

    // A corrupted return target mispredicts.
    pred.predictAndTrain(call);
    ret.nextPc = 0x7777;
    EXPECT_TRUE(pred.predictAndTrain(ret));
}

TEST(Predictor, IndirectJumpNeedsBtb)
{
    BranchPredictor pred;
    trace::TraceRecord jmp;
    jmp.pc = 0x2000;
    jmp.nextPc = 0x3000;
    jmp.inst.mnem = x86::Mnem::JMP;
    jmp.inst.form = x86::Form::R;
    jmp.taken = true;

    EXPECT_TRUE(pred.predictAndTrain(jmp));     // cold BTB
    EXPECT_FALSE(pred.predictAndTrain(jmp));    // learned target
    jmp.nextPc = 0x4000;                        // target changed
    EXPECT_TRUE(pred.predictAndTrain(jmp));
}

// ---------------------------------------------------------------------
// ExecModel
// ---------------------------------------------------------------------

namespace {

uop::Uop
aluUop()
{
    uop::Uop u;
    u.op = uop::Op::ADD;
    u.dst = uop::UReg::EAX;
    u.srcA = uop::UReg::EAX;
    u.imm = 1;
    return u;
}

uop::Uop
loadUop()
{
    uop::Uop u;
    u.op = uop::Op::LOAD;
    u.dst = uop::UReg::EBX;
    u.srcA = uop::UReg::ESI;
    return u;
}

uop::Uop
storeUop()
{
    uop::Uop u;
    u.op = uop::Op::STORE;
    u.srcA = uop::UReg::ESI;
    u.srcB = uop::UReg::EAX;
    return u;
}

} // namespace

TEST(ExecModel, DependencyChainSerializes)
{
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);

    uint64_t prev = 0;
    uint64_t completions[8];
    for (int i = 0; i < 8; ++i) {
        const auto t = exec.exec(0, aluUop(), &prev, prev ? 1 : 0);
        completions[i] = t.complete;
        prev = t.complete;
    }
    // Single-cycle ALU chain: each completion exactly one later.
    for (int i = 1; i < 8; ++i)
        EXPECT_EQ(completions[i], completions[i - 1] + 1);
}

TEST(ExecModel, IndependentUopsOverlap)
{
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);
    uint64_t first = 0, last = 0;
    for (int i = 0; i < 6; ++i) {
        const auto t = exec.exec(0, aluUop(), nullptr, 0);
        if (i == 0)
            first = t.complete;
        last = t.complete;
    }
    // Six simple ALUs: all six issue in the same cycle.
    EXPECT_EQ(first, last);
}

TEST(ExecModel, FunctionUnitContention)
{
    MemoryHierarchy mem;
    ExecParams params;
    params.complexAlus = 2;
    ExecModel exec(params, mem);
    uop::Uop mul;
    mul.op = uop::Op::MUL;
    mul.dst = uop::UReg::EAX;
    mul.srcA = uop::UReg::EAX;
    mul.imm = 3;

    std::vector<uint64_t> completes;
    for (int i = 0; i < 4; ++i)
        completes.push_back(exec.exec(0, mul, nullptr, 0).complete);
    // Two complex units: the 3rd/4th multiply issue a cycle later.
    EXPECT_EQ(completes[0], completes[1]);
    EXPECT_EQ(completes[2], completes[3]);
    EXPECT_EQ(completes[2], completes[0] + 1);
}

TEST(ExecModel, StoreToLoadForwarding)
{
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);
    // Warm the line so a non-forwarded load would be a 2-cycle hit.
    mem.access(0x8000);

    const auto st = exec.exec(0, storeUop(), nullptr, 0, 0x8000);
    const auto ld = exec.exec(0, loadUop(), nullptr, 0, 0x8000);
    // The load waits for the store's data and takes the bypass.
    EXPECT_EQ(ld.complete, st.complete + 1);
}

TEST(ExecModel, LoadMissPaysMemoryAndReplay)
{
    MemoryHierarchy mem;
    ExecParams params;
    ExecModel exec(params, mem);
    const auto t = exec.exec(0, loadUop(), nullptr, 0, 0xdead0000);
    EXPECT_TRUE(t.l1Miss);
    // Memory latency (50) plus the speculative-wakeup replay penalty.
    EXPECT_GE(t.complete - t.issue, 50u + params.replayPenalty);
}

TEST(ExecModel, BranchResolutionRespectsTable2)
{
    // Fetch-to-execute for a branch must be >= 15 cycles (Table 2).
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);
    uop::Uop br;
    br.op = uop::Op::BR;
    br.cc = x86::Cond::NE;
    br.readsFlags = true;
    const auto t = exec.exec(100, br, nullptr, 0);
    EXPECT_GE(t.complete, 100u + 15u);
}

TEST(ExecModel, WindowBackpressure)
{
    MemoryHierarchy mem;
    ExecParams params;
    params.windowSize = 64;
    ExecModel exec(params, mem);
    EXPECT_EQ(exec.fetchBackpressure(), 0u);
    // Fill the window with a serial dependency chain; retirement lags
    // and backpressure must eventually exceed the fetch cycle.
    uint64_t prev = 0;
    for (unsigned i = 0; i < 64; ++i)
        prev = exec.exec(0, aluUop(), &prev, prev ? 1 : 0).complete;
    EXPECT_GT(exec.fetchBackpressure(), 0u);
}

TEST(ExecModel, RetirementIsInOrderAndBounded)
{
    MemoryHierarchy mem;
    ExecParams params;
    ExecModel exec(params, mem);
    uint64_t last_retire = 0;
    unsigned at_same_cycle = 0;
    uint64_t prev_cycle = ~0ULL;
    for (int i = 0; i < 64; ++i) {
        const auto t = exec.exec(0, aluUop(), nullptr, 0);
        EXPECT_GE(t.retire, last_retire);
        last_retire = t.retire;
        if (t.retire == prev_cycle) {
            ++at_same_cycle;
            EXPECT_LT(at_same_cycle, params.width);
        } else {
            at_same_cycle = 0;
            prev_cycle = t.retire;
        }
    }
}

// ---------------------------------------------------------------------
// ExecModel against the reference occupancy-ring scheduler
// ---------------------------------------------------------------------

namespace {

/**
 * The scheduler as it was before dispatch and retirement became
 * cursors: every resource is a per-cycle occupancy ring, reserveSlot
 * walks cycles one at a time, and touchCycle clears every ring when a
 * slot is reused for a new cycle.  Kept verbatim (plus a probe count)
 * as the specification ExecModel must match cycle for cycle.
 */
class RefExecModel
{
  public:
    RefExecModel(ExecParams params, MemoryHierarchy &mem)
        : params_(params), mem_(mem), ringCycle_(RING, ~0ULL),
          dispatchRing_(RING, 0), issueRing_(RING, 0),
          retireRing_(RING, 0), windowRetire_(params.windowSize, 0),
          storeMap_(STORE_MAP, {0xffffffff, 0})
    {
        for (auto &ring : fuRing_)
            ring.assign(RING, 0);
    }

    uint64_t
    fetchBackpressure() const
    {
        if (count_ < params_.windowSize)
            return 0;
        const uint64_t oldest_retire =
            windowRetire_[count_ % params_.windowSize];
        const uint64_t f2d = params_.fetchToDispatch;
        return oldest_retire > f2d ? oldest_retire - f2d : 0;
    }

    uint64_t lastRetire() const { return lastRetire_; }
    uint64_t probes() const { return probes_; }

    UopTiming
    exec(uint64_t fetch_cycle, uop::Op op, uint8_t mem_size,
         const uint64_t *deps, unsigned num_deps, uint32_t mem_addr)
    {
        using uop::Op;
        UopTiming t;
        uint64_t dispatch = fetch_cycle + params_.fetchToDispatch;
        if (count_ >= params_.windowSize) {
            dispatch = std::max(dispatch,
                                windowRetire_[count_ % params_.windowSize]);
        }
        t.dispatch = reserveSlot(dispatchRing_, dispatch, params_.width);

        uint64_t ready = t.dispatch + 1;
        for (unsigned d = 0; d < num_deps; ++d)
            ready = std::max(ready, deps[d]);

        const FuClass cls = fuClassOf(op);
        const unsigned limit = fuLimit(cls);
        auto &fu_ring = fuRing_[unsigned(cls)];
        uint64_t cycle = ready;
        for (unsigned guard = 0;; ++guard, ++cycle) {
            EXPECT_LT(guard, RING);
            touchCycle(cycle);
            const size_t idx = cycle & (RING - 1);
            if (issueRing_[idx] < params_.width && fu_ring[idx] < limit) {
                ++issueRing_[idx];
                ++fu_ring[idx];
                break;
            }
        }
        t.issue = cycle;

        unsigned latency = 1;
        switch (op) {
          case Op::MUL:
            latency = params_.mulLatency;
            break;
          case Op::DIVQ:
          case Op::DIVR:
            latency = params_.divLatency;
            break;
          case Op::FADD:
          case Op::FSUB:
          case Op::FMUL:
            latency = params_.fpLatency;
            break;
          case Op::FDIV:
            latency = params_.fpDivLatency;
            break;
          case Op::LOAD:
          case Op::FLOAD: {
            uint64_t fwd = 0;
            for (uint32_t b = mem_addr & ~3u;
                 b <= ((mem_addr + mem_size - 1) & ~3u); b += 4) {
                const auto &[saddr, scomplete] =
                    storeMap_[(b >> 2) & (STORE_MAP - 1)];
                if (saddr == b && scomplete > t.issue)
                    fwd = std::max(fwd, scomplete);
            }
            if (fwd) {
                t.complete = fwd + params_.forwardLatency;
            } else {
                const unsigned lat = mem_.access(mem_addr);
                t.l1Miss = mem_.lastMissedL1();
                t.complete = t.issue + lat +
                             (t.l1Miss ? params_.replayPenalty : 0);
            }
            break;
          }
          case Op::STORE:
          case Op::FSTORE: {
            latency = params_.storeLatency;
            t.complete = t.issue + latency;
            for (uint32_t b = mem_addr & ~3u;
                 b <= ((mem_addr + mem_size - 1) & ~3u); b += 4) {
                storeMap_[(b >> 2) & (STORE_MAP - 1)] = {b, t.complete};
            }
            mem_.access(mem_addr);
            break;
          }
          default:
            break;
        }
        if (t.complete == 0)
            t.complete = t.issue + latency;

        const uint64_t retire = std::max(t.complete + 1, lastRetire_);
        t.retire = reserveSlot(retireRing_, retire, params_.width);
        lastRetire_ = t.retire;
        windowRetire_[count_ % params_.windowSize] = t.retire;
        ++count_;
        return t;
    }

  private:
    static constexpr unsigned RING = 1u << 15;
    static constexpr size_t STORE_MAP = 1u << 12;

    void
    touchCycle(uint64_t cycle)
    {
        ++probes_;
        const size_t idx = cycle & (RING - 1);
        if (ringCycle_[idx] != cycle) {
            ringCycle_[idx] = cycle;
            dispatchRing_[idx] = 0;
            issueRing_[idx] = 0;
            retireRing_[idx] = 0;
            for (auto &ring : fuRing_)
                ring[idx] = 0;
        }
    }

    uint64_t
    reserveSlot(std::vector<uint8_t> &ring, uint64_t from, unsigned limit)
    {
        uint64_t cycle = from;
        for (unsigned guard = 0; guard < RING; ++guard, ++cycle) {
            touchCycle(cycle);
            uint8_t &count = ring[cycle & (RING - 1)];
            if (count < limit) {
                ++count;
                return cycle;
            }
        }
        ADD_FAILURE() << "no free slot near cycle " << from;
        return cycle;
    }

    unsigned
    fuLimit(FuClass cls) const
    {
        switch (cls) {
          case FuClass::SIMPLE:  return params_.simpleAlus;
          case FuClass::COMPLEX: return params_.complexAlus;
          case FuClass::FPU:     return params_.fpus;
          case FuClass::LSU:     return params_.lsus;
          default:               return 1;
        }
    }

    ExecParams params_;
    MemoryHierarchy &mem_;
    std::vector<uint64_t> ringCycle_;
    std::vector<uint8_t> dispatchRing_;
    std::vector<uint8_t> issueRing_;
    std::vector<uint8_t> retireRing_;
    std::vector<uint8_t> fuRing_[unsigned(FuClass::NUM_CLASSES)];
    std::vector<uint64_t> windowRetire_;
    uint64_t count_ = 0;
    uint64_t lastRetire_ = 0;
    uint64_t probes_ = 0;
    std::vector<std::pair<uint32_t, uint64_t>> storeMap_;
};

/** One seeded µop: opcode, access, and which earlier µops it reads. */
struct GenUop
{
    uop::Op op = uop::Op::ADD;
    uint8_t memSize = 4;
    uint32_t addr = 0;
    unsigned numDeps = 0;
    uint64_t depAgo[3] = {};    ///< producers, as distances back (>= 1)
    unsigned fetchAdvance = 0;  ///< fetch-clock cycles before this µop
};

/**
 * Seeded µop stream in three kinds of stretch: random op mixes over a
 * small data region (hits, store forwarding), serial divide chains
 * that fill the window, and chains of loads that each miss to memory.
 */
class UopStream
{
  public:
    explicit UopStream(uint64_t seed) : rng_(seed) {}

    GenUop
    next()
    {
        if (left_ == 0) {
            kind_ = unsigned(rng_.below(3));
            left_ = 200 + rng_.below(1500);
        }
        --left_;
        ++made_;
        GenUop g;
        g.fetchAdvance = rng_.chance(0.3) ? unsigned(rng_.below(3)) : 0;
        switch (kind_) {
          case 0:
            mix(g);
            break;
          case 1:
            // Serial divides (plus independent filler) outlast the
            // window: fetch runs ahead until backpressure stalls it.
            if (rng_.chance(0.5)) {
                g.op = uop::Op::DIVQ;
                chainOn(g, lastChain_);
                lastChain_ = made_;
            } else {
                g.op = uop::Op::ADD;
            }
            break;
          default:
            // Dependent loads, each to a fresh line far from the rest.
            g.op = uop::Op::LOAD;
            g.addr = 0x40000000u + uint32_t(made_ * 4160);
            chainOn(g, lastChain_);
            lastChain_ = made_;
            g.fetchAdvance = 0;
            break;
        }
        return g;
    }

  private:
    void
    chainOn(GenUop &g, uint64_t producer)
    {
        if (producer && made_ - producer < HISTORY) {
            g.depAgo[0] = made_ - producer;
            g.numDeps = 1;
        }
    }

    void
    mix(GenUop &g)
    {
        static constexpr uop::Op OPS[] = {
            uop::Op::ADD,  uop::Op::ADD,   uop::Op::SUB,   uop::Op::MUL,
            uop::Op::DIVQ, uop::Op::FADD,  uop::Op::FMUL,  uop::Op::FDIV,
            uop::Op::LOAD, uop::Op::LOAD,  uop::Op::STORE, uop::Op::FLOAD,
            uop::Op::FSTORE, uop::Op::BR,  uop::Op::LOAD,  uop::Op::STORE,
        };
        g.op = OPS[rng_.below(std::size(OPS))];
        static constexpr uint8_t SIZES[] = {1, 2, 4, 4};
        g.memSize = SIZES[rng_.below(4)];
        g.addr = 0x10000000u + uint32_t(rng_.below(1u << 14));
        g.numDeps = unsigned(rng_.below(4));
        const uint64_t reach = std::min<uint64_t>(made_ - 1, HISTORY - 1);
        if (reach == 0)
            g.numDeps = 0;
        for (unsigned d = 0; d < g.numDeps; ++d) {
            // Mostly recent producers, sometimes far back.
            const uint64_t span = rng_.chance(0.8)
                ? std::min<uint64_t>(reach, 16) : reach;
            g.depAgo[d] = 1 + rng_.below(span);
        }
    }

    static constexpr uint64_t HISTORY = 4096;

    Rng rng_;
    unsigned kind_ = 0;
    uint64_t left_ = 0;
    uint64_t made_ = 0;
    uint64_t lastChain_ = 0;
};

} // namespace

TEST(ExecModel, MatchesReferenceSchedulerOnSeededStreams)
{
    constexpr uint64_t UOPS_PER_SEED = 400000;
    constexpr uint64_t HISTORY = 4096;
    uint64_t total = 0, window_full = 0, misses = 0;
    for (const uint64_t seed : {1ull, 2ull, 3ull}) {
        MemoryHierarchy mem_new, mem_ref;
        ExecModel model(ExecParams{}, mem_new);
        RefExecModel ref(ExecParams{}, mem_ref);
        UopStream stream(seed);
        std::vector<uint64_t> completes(HISTORY, 0);
        uint64_t fetch = 0;

        for (uint64_t n = 1; n <= UOPS_PER_SEED; ++n) {
            const GenUop g = stream.next();
            ASSERT_EQ(model.fetchBackpressure(), ref.fetchBackpressure())
                << "seed " << seed << " uop " << n;
            // The front end: fetch advances, then stalls on a full window.
            fetch += g.fetchAdvance;
            if (ref.fetchBackpressure() > fetch) {
                fetch = ref.fetchBackpressure();
                ++window_full;
            }
            uint64_t deps[3];
            for (unsigned d = 0; d < g.numDeps; ++d)
                deps[d] = completes[(n - g.depAgo[d]) % HISTORY];

            const UopTiming a =
                model.exec(fetch, g.op, g.memSize, deps, g.numDeps, g.addr);
            const UopTiming b =
                ref.exec(fetch, g.op, g.memSize, deps, g.numDeps, g.addr);
            ASSERT_EQ(a.dispatch, b.dispatch) << "seed " << seed << " uop " << n;
            ASSERT_EQ(a.issue, b.issue) << "seed " << seed << " uop " << n;
            ASSERT_EQ(a.complete, b.complete) << "seed " << seed << " uop " << n;
            ASSERT_EQ(a.retire, b.retire) << "seed " << seed << " uop " << n;
            ASSERT_EQ(a.l1Miss, b.l1Miss) << "seed " << seed << " uop " << n;
            ASSERT_EQ(model.lastRetire(), ref.lastRetire());
            completes[n % HISTORY] = a.complete;
            misses += a.l1Miss;
        }
        total += UOPS_PER_SEED;
        // The cursor model probes only the issue ring; the reference
        // also walked its dispatch and retire rings.
        EXPECT_LT(model.ringProbes(), ref.probes());
    }
    EXPECT_GE(total, 1000000u);
    // Non-vacuity: the streams really did fill the window and miss.
    EXPECT_GT(window_full, total / 20);
    EXPECT_GT(misses, total / 20);
}

TEST(ExecModelDeathTest, DispatchRequestGoingBackwardsPanics)
{
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);
    exec.exec(100, aluUop(), nullptr, 0);
    EXPECT_DEATH(exec.exec(50, aluUop(), nullptr, 0),
                 "dispatch request 63 went backwards from 113");
}

TEST(ExecModelDeathTest, IssueARingPastDispatchPanics)
{
    MemoryHierarchy mem;
    ExecModel exec(ExecParams{}, mem);
    const auto first = exec.exec(0, aluUop(), nullptr, 0);
    // Legal: the issue lands just inside the ring's span.
    const uint64_t near = first.dispatch + ExecModel::RING - 1;
    EXPECT_EQ(exec.exec(0, aluUop(), &near, 1).issue, near);
    const uint64_t far = first.dispatch + ExecModel::RING;
    EXPECT_DEATH(exec.exec(0, aluUop(), &far, 1), "slot ring would alias");
}

// ---------------------------------------------------------------------
// FrontEnd
// ---------------------------------------------------------------------

TEST(FrontEnd, DecodeWidthGroupsInsts)
{
    PipelineConfig cfg;
    FrontEnd fe(cfg);
    fe.icache().cache().access(0x1000);     // pre-warm

    std::vector<uint64_t> cycles;
    for (int i = 0; i < 9; ++i)
        cycles.push_back(fe.fetchIcacheInst(0x1000, 1));
    // 4 per cycle: insts 0-3 same cycle, 4-7 next, 8 the one after.
    EXPECT_EQ(cycles[0], cycles[3]);
    EXPECT_EQ(cycles[4], cycles[0] + 1);
    EXPECT_EQ(cycles[8], cycles[0] + 2);
}

TEST(FrontEnd, FrameFetchEightWide)
{
    PipelineConfig cfg;
    FrontEnd fe(cfg);
    std::vector<uint64_t> cycles;
    for (int i = 0; i < 17; ++i)
        cycles.push_back(fe.fetchFrameUop());
    EXPECT_EQ(cycles[0], cycles[7]);
    EXPECT_EQ(cycles[8], cycles[0] + 1);
    EXPECT_EQ(cycles[16], cycles[0] + 2);
}

TEST(FrontEnd, WaitCycleOnFrameToIcacheSwitch)
{
    PipelineConfig cfg;
    FrontEnd fe(cfg);
    fe.icache().cache().access(0x1000);
    fe.fetchFrameUop();
    const uint64_t before = fe.now();
    fe.fetchIcacheInst(0x1000, 1);
    // One cycle to close the frame group plus the Wait turnaround.
    EXPECT_EQ(fe.now(), before + 1 + cfg.waitCycles);
    EXPECT_EQ(fe.bins().get(CycleBin::WAIT), cfg.waitCycles);
}

TEST(FrontEnd, IcacheMissChargedToMissBin)
{
    PipelineConfig cfg;
    FrontEnd fe(cfg);
    fe.fetchIcacheInst(0x1000, 1);          // cold: miss
    EXPECT_EQ(fe.bins().get(CycleBin::MISS), cfg.icacheMissLatency);
}

TEST(FrontEnd, BinsSumToTotalAfterFinish)
{
    PipelineConfig cfg;
    FrontEnd fe(cfg);
    fe.icache().cache().access(0x1000);
    for (int i = 0; i < 20; ++i)
        fe.fetchIcacheInst(0x1000 + i * 4, 1);
    const uint64_t idle_target = fe.now() + 7;
    fe.idleUntil(idle_target, CycleBin::MISPRED);
    for (int i = 0; i < 9; ++i)
        fe.fetchFrameUop();
    fe.finish(fe.now() + 25);
    EXPECT_EQ(fe.bins().total(), fe.now());
    EXPECT_GT(fe.bins().get(CycleBin::ICACHE), 0u);
    EXPECT_GT(fe.bins().get(CycleBin::FRAME), 0u);
    // Closing the open ICache fetch group consumes one of the seven
    // idle cycles.
    EXPECT_EQ(fe.bins().get(CycleBin::MISPRED), 6u);
    EXPECT_GT(fe.bins().get(CycleBin::STALL), 0u);  // drain tail
}

TEST(Accounting, BinNamesAndMerge)
{
    CycleAccounting a, b;
    a.add(CycleBin::FRAME, 10);
    b.add(CycleBin::FRAME, 5);
    b.add(CycleBin::ASSERT, 2);
    a.merge(b);
    EXPECT_EQ(a.get(CycleBin::FRAME), 15u);
    EXPECT_EQ(a.get(CycleBin::ASSERT), 2u);
    EXPECT_EQ(a.total(), 17u);
    EXPECT_STREQ(cycleBinName(CycleBin::ASSERT), "assert");
    EXPECT_STREQ(cycleBinName(CycleBin::ICACHE), "icache");
}

TEST(PipelineConfig, DescribeMatchesTable2)
{
    PipelineConfig cfg;
    const std::string desc = cfg.describe();
    EXPECT_NE(desc.find("8-wide"), std::string::npos);
    EXPECT_NE(desc.find("18-bit gshare"), std::string::npos);
    EXPECT_NE(desc.find("512 instructions"), std::string::npos);
    EXPECT_NE(desc.find("6 simple ALU"), std::string::npos);
    EXPECT_NE(desc.find("4 load/store"), std::string::npos);
    EXPECT_NE(desc.find("50 cycles"), std::string::npos);
}
