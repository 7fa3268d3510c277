#include "sim/simulator.hh"

#include <array>

#include "core/frame.hh"
#include "util/logging.hh"
#include "verify/static/hook.hh"

namespace replay::sim {

using core::FrameOutcome;
using core::FramePtr;
using opt::Operand;
using timing::CycleBin;
using trace::TraceRecord;
using uop::Op;
using uop::Uop;
using uop::UReg;

/** Completion times of architectural values (the timing-side RAT). */
struct Simulator::Rat
{
    std::array<uint64_t, uop::NUM_UREGS> regs{};
    uint64_t flags = 0;

    uint64_t
    reg(UReg r) const
    {
        return r == UReg::NONE ? 0 : regs[unsigned(r)];
    }
};

Simulator::Simulator(const SimConfig &cfg)
    : cfg_(cfg), fe_(cfg_.pipe), mem_(cfg_.pipe.mem),
      exec_(cfg_.pipe.exec, mem_), bpred_(cfg_.pipe.bpred),
      rat_(std::make_unique<Rat>())
{
    vstatic::maybeEnableStaticCheckFromEnv();
    if (cfg_.fault.enabled()) {
        injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault);
        if (cfg_.usesFrames())
            cfg_.engine.injector = injector_.get();
    }
    if (cfg_.usesFrames())
        engine_ = std::make_unique<core::RePlayEngine>(cfg_.engine);
    if (cfg_.verifyOnline)
        online_ = std::make_unique<verify::OnlineVerifier>(cfg_.maxInsts);
    if (cfg_.usesTraceCache()) {
        tcache_ = std::make_unique<TraceCacheUnit>(
            cfg_.tcCapacityUops, cfg_.tcMaxBranches, cfg_.tcMaxUops);
    }
}

Simulator::~Simulator() = default;

uint64_t
Simulator::translations() const
{
    return translator_.translations() +
           (engine_ ? engine_->constructor().translations() : 0) +
           (tcache_ ? tcache_->translations() : 0);
}

namespace {

/** Runtime address of a memory micro-op, from the trace record. */
uint32_t
memAddrFor(uint8_t mem_seq, const TraceRecord *rec)
{
    if (!rec || mem_seq >= rec->numMemOps)
        return 0;
    return rec->memOps[mem_seq].addr;
}

uint32_t
memAddrFor(const Uop &u, const TraceRecord *rec)
{
    return memAddrFor(u.memSeq, rec);
}

} // anonymous namespace

void
Simulator::simulateIcacheInst(const TraceRecord &rec,
                              trace::TraceSource &src)
{
    fe_.idleUntil(exec_.fetchBackpressure(), CycleBin::STALL);

    // Per-thread decode scratch: this runs once per conventional-path
    // instruction and is far too hot for a fresh allocation.
    thread_local std::vector<Uop> flow;
    flow.clear();
    translator_.translate(rec.inst, rec.pc, rec.pc + rec.length, flow);
    const uint64_t fetch_cycle =
        fe_.fetchIcacheInst(rec.pc, unsigned(flow.size()));

    uint64_t ctrl_complete = 0;
    for (const Uop &u : flow) {
        uint64_t deps[4];
        unsigned nd = 0;
        if (u.srcA != UReg::NONE)
            deps[nd++] = rat_->reg(u.srcA);
        if (u.srcB != UReg::NONE)
            deps[nd++] = rat_->reg(u.srcB);
        if (u.srcC != UReg::NONE)
            deps[nd++] = rat_->reg(u.srcC);
        if (u.readsFlags)
            deps[nd++] = rat_->flags;

        const uint32_t addr =
            u.isMem() ? memAddrFor(u, &rec) : 0;
        const auto t = exec_.exec(fetch_cycle, u, deps, nd, addr);

        if (u.dst != UReg::NONE)
            rat_->regs[unsigned(u.dst)] = t.complete;
        if (u.writesFlags)
            rat_->flags = t.complete;
        if (u.isControl())
            ctrl_complete = t.complete;

        ++stats_.uopsExecuted;
        ++stats_.uopsOriginal;
        if (u.isLoad()) {
            ++stats_.loadsExecuted;
            ++stats_.loadsOriginal;
        }
    }

    if (rec.inst.isControl() || rec.inst.isCondBranch()) {
        const bool mispredicted = bpred_.predictAndTrain(rec);
        if (rec.taken)
            fe_.fetchBreak();
        if (mispredicted) {
            ++stats_.mispredicts;
            fe_.idleUntil(ctrl_complete + cfg_.pipe.redirectPenalty,
                          CycleBin::MISPRED);
        }
    }

    if (rec.inst.mnem == x86::Mnem::LONGFLOW) {
        // Rare complex instruction: flush the pipeline (§5.1.1).
        fe_.idleUntil(exec_.lastRetire() + cfg_.pipe.longflowFlushPenalty,
                      CycleBin::STALL);
        if (engine_)
            engine_->flush();
    }

    if (engine_)
        engine_->observeRetired(rec, unsigned(flow.size()), fe_.now());
    if (tcache_)
        tcache_->observe(rec, unsigned(flow.size()));
    if (online_)
        online_->observe(rec);

    ++stats_.x86Retired;
    src.advance();
}

void
Simulator::simulateFrame(const FramePtr &frame, trace::TraceSource &src)
{
    const FrameOutcome outcome = core::resolveFrame(*frame, src);
    const auto &body = frame->body;

    // Fetch and schedule the whole frame (even on an abort: the
    // pessimistic §6.1 model begins recovery only once the frame is
    // ready for retirement).
    const Rat rat_snapshot = *rat_;
    const uop::UopSlab &code = body.code;
    const size_t n_uops = code.size();
    thread_local std::vector<uint64_t> completions;
    completions.assign(n_uops, 0);

    auto depOf = [&](const Operand &op) -> uint64_t {
        switch (op.kind) {
          case Operand::Kind::NONE:
            return 0;
          case Operand::Kind::LIVE_IN:
            return op.reg == UReg::FLAGS ? rat_->flags
                                         : rat_->reg(op.reg);
          case Operand::Kind::PROD:
            return completions[op.idx];
        }
        return 0;
    };

    // Plane scan: operand planes for dependencies, the attr bitset for
    // the memory test, provenance planes only on the mem path.
    for (size_t i = 0; i < n_uops; ++i) {
        fe_.idleUntil(exec_.fetchBackpressure(), CycleBin::STALL);
        const uint64_t cycle = fe_.fetchFrameUop();

        uint64_t deps[4];
        unsigned nd = 0;
        if (!body.srcA[i].isNone())
            deps[nd++] = depOf(body.srcA[i]);
        if (!body.srcB[i].isNone())
            deps[nd++] = depOf(body.srcB[i]);
        if (!body.srcC[i].isNone())
            deps[nd++] = depOf(body.srcC[i]);
        if (!body.flagsSrc[i].isNone())
            deps[nd++] = depOf(body.flagsSrc[i]);

        uint32_t addr = 0;
        if (code.attr[i] & uop::UA_KIND_MEM) {
            const uint16_t inst_idx = code.instIdx[i];
            const TraceRecord *rec = src.peek(inst_idx);
            if (rec && inst_idx < frame->pcs.size() &&
                rec->pc == frame->pcs[inst_idx]) {
                addr = memAddrFor(code.memSeq[i], rec);
            }
        }
        const auto t = exec_.exec(cycle, code.op[i], code.memSize[i],
                                  deps, nd, addr);
        completions[i] = t.complete;
    }
    fe_.fetchBreak();

    // Online verification: check the (possibly corrupted) cached body
    // against the trace span before anything commits.  A rejection
    // rolls back like an assert fire, pays the verify-recovery penalty,
    // quarantines the frame's start PC, and degrades to the
    // conventional path.
    if (outcome.kind == FrameOutcome::Kind::COMMITS && online_) {
        const uint64_t skips_before = online_->skips();
        const verify::VerifyResult vr =
            online_->verifyDispatch(*frame, src);
        if (online_->skips() == skips_before)
            ++stats_.verifyChecks;
        if (!vr.ok) {
            ++stats_.verifyDetections;
            *rat_ = rat_snapshot;
            fe_.idleUntil(
                exec_.lastRetire() + cfg_.pipe.verifyRecoveryPenalty,
                CycleBin::VERIFY);
            engine_->frameQuarantined(frame, fe_.now());
            icacheForcedUntil_ = src.consumed() + 1;
            return;
        }
        if (frame->faultInjected)
            ++stats_.corruptFrameCommits;
    }

    if (outcome.kind == FrameOutcome::Kind::COMMITS) {
        // Architectural hand-off: live-out bindings become the new
        // value-completion map.
        Rat next = rat_snapshot;
        for (unsigned r = 0; r < uop::NUM_UREGS; ++r) {
            const Operand &binding = body.exit.regs[r];
            if (!binding.isNone())
                next.regs[r] = depOf(binding);
        }
        next.flags = depOf(body.exit.flags);
        *rat_ = next;

        engine_->frameCommitted(frame);
        ++stats_.frameCommits;
        stats_.uopsExecuted += n_uops;
        stats_.loadsExecuted += body.outputLoads;
        stats_.uopsOriginal += body.inputUops;
        stats_.loadsOriginal += body.inputLoads;
        stats_.frameX86Retired += frame->numX86Insts();
        stats_.x86Retired += frame->numX86Insts();
        // The frame's instructions retire and flow into the frame
        // constructor like any others (Figure 5) — this keeps the
        // bias tables warm and lets construction tile contiguously
        // across committed frames.  Their µop counts were recorded
        // when the frame was built, so nothing is decoded again.
        for (unsigned i = 0; i < frame->numX86Insts(); ++i) {
            const TraceRecord *r = src.peek();
            engine_->observeRetired(*r, frame->instUops[i], fe_.now());
            if (online_)
                online_->observe(*r);
            // Keep the predictor trained across frame-covered code so
            // the branches at frame boundaries keep their history (no
            // penalty is charged: assertions replaced the predictions).
            if (r->inst.isControl() || r->inst.isCondBranch())
                bpred_.predictAndTrain(*r);
            src.advance();
        }
        return;
    }

    // Abort: roll back, charge recovery, and force the original
    // instructions through the conventional path.
    *rat_ = rat_snapshot;
    fe_.idleUntil(exec_.lastRetire() + cfg_.pipe.assertRecoveryPenalty,
                  CycleBin::ASSERT);
    engine_->frameAborted(frame, outcome);
    ++stats_.frameAborts;
    if (outcome.kind == FrameOutcome::Kind::UNSAFE_CONFLICT)
        ++stats_.unsafeConflicts;
    // The aborted frame's fetched micro-ops consumed bandwidth but
    // retired nothing; the records are re-executed below.
    icacheForcedUntil_ = src.consumed() + outcome.faultIndex + 1;
}

void
Simulator::simulateTracePrefix(const FramePtr &trace_frame,
                               trace::TraceSource &src)
{
    // Usable prefix: instructions up to (and including) the first one
    // whose outcome leaves the trace's embedded path.
    unsigned n = 0;
    for (size_t i = 0; i < trace_frame->pcs.size(); ++i) {
        const TraceRecord *rec = src.peek(unsigned(i));
        if (!rec || rec->pc != trace_frame->pcs[i])
            break;
        n = unsigned(i) + 1;
        if (rec->nextPc != trace_frame->expectedNext(i))
            break;      // early exit after this instruction
    }
    panic_if(n == 0, "trace lookup hit but first pc mismatched");

    const auto &body = trace_frame->body;
    const uop::UopSlab &code = body.code;
    const size_t n_uops = code.size();
    thread_local std::vector<uint64_t> completions;
    completions.assign(n_uops, 0);
    auto depOf = [&](const Operand &op) -> uint64_t {
        switch (op.kind) {
          case Operand::Kind::NONE:
            return 0;
          case Operand::Kind::LIVE_IN:
            return op.reg == UReg::FLAGS ? rat_->flags
                                         : rat_->reg(op.reg);
          case Operand::Kind::PROD:
            return completions[op.idx];
        }
        return 0;
    };

    // µops of each prefix instruction: the fill unit's counts.
    thread_local std::vector<uint8_t> inst_uops;
    inst_uops.assign(n, 0);
    const TraceRecord *rec = nullptr;
    size_t inst_first = 0;
    uint64_t ctrl_complete = 0;
    for (size_t i = 0; i < n_uops; ++i) {
        const uint16_t inst_idx = code.instIdx[i];
        const uint16_t attr = code.attr[i];
        if (inst_idx >= n)
            break;
        if (i == 0 || code.instIdx[i - 1] != inst_idx) {
            rec = src.peek(inst_idx);
            inst_first = i;
        }

        fe_.idleUntil(exec_.fetchBackpressure(), CycleBin::STALL);
        const uint64_t cycle = fe_.fetchFrameUop();

        uint64_t deps[4];
        unsigned nd = 0;
        if (!body.srcA[i].isNone())
            deps[nd++] = depOf(body.srcA[i]);
        if (!body.srcB[i].isNone())
            deps[nd++] = depOf(body.srcB[i]);
        if (!body.srcC[i].isNone())
            deps[nd++] = depOf(body.srcC[i]);
        if (!body.flagsSrc[i].isNone())
            deps[nd++] = depOf(body.flagsSrc[i]);

        const uint32_t addr = (attr & uop::UA_KIND_MEM)
            ? memAddrFor(code.memSeq[i], rec)
            : 0;
        const auto t = exec_.exec(cycle, code.op[i], code.memSize[i],
                                  deps, nd, addr);
        completions[i] = t.complete;

        // Live-out tracking: traces are not renamed across exits, so
        // update the RAT directly from the architectural destination.
        if (code.dst[i] != UReg::NONE)
            rat_->regs[unsigned(code.dst[i])] = t.complete;
        if (attr & uop::UA_WRITES_FLAGS)
            rat_->flags = t.complete;
        if (attr & uop::UA_KIND_CONTROL)
            ctrl_complete = t.complete;

        ++stats_.uopsExecuted;
        ++stats_.uopsOriginal;
        if (attr & uop::UA_KIND_LOAD) {
            ++stats_.loadsExecuted;
            ++stats_.loadsOriginal;
        }

        // Branch resolution for embedded control.
        const bool last_uop_of_inst =
            i + 1 == n_uops || code.instIdx[i + 1] != inst_idx;
        if (last_uop_of_inst) {
            inst_uops[inst_idx] = uint8_t(i + 1 - inst_first);
            if (rec->inst.isControl() || rec->inst.isCondBranch()) {
                const bool mispredicted = bpred_.predictAndTrain(*rec);
                if (mispredicted) {
                    ++stats_.mispredicts;
                    fe_.idleUntil(
                        ctrl_complete + cfg_.pipe.redirectPenalty,
                        CycleBin::MISPRED);
                }
            }
        }
    }
    fe_.fetchBreak();

    stats_.x86Retired += n;
    stats_.frameX86Retired += n;    // "retired from the trace cache"
    for (unsigned i = 0; i < n; ++i) {
        tcache_->observe(*src.peek(), inst_uops[i]);
        if (online_)
            online_->observe(*src.peek());
        src.advance();
    }
}

RunStats
Simulator::run(trace::TraceSource &src)
{
    stats_ = RunStats{};
    stats_.config = cfg_.name();

    while (!src.done() &&
           (cfg_.maxInsts == 0 || stats_.x86Retired < cfg_.maxInsts)) {
        const TraceRecord *rec = src.peek();
        const uint32_t pc = rec->pc;

        if (engine_ && src.consumed() >= icacheForcedUntil_) {
            if (FramePtr frame = engine_->frameFor(pc, fe_.now())) {
                if (lastWasFrame_)
                    ++stats_.frameAfterFrame;
                lastWasFrame_ = true;
                simulateFrame(frame, src);
                continue;
            }
        }
        if (tcache_) {
            if (FramePtr trace_frame = tcache_->lookup(pc)) {
                simulateTracePrefix(trace_frame, src);
                continue;
            }
        }
        if (lastWasFrame_)
            ++stats_.icacheAfterFrame;
        lastWasFrame_ = false;
        simulateIcacheInst(*rec, src);
    }

    fe_.finish(exec_.lastRetire());
    stats_.bins = fe_.bins();
    stats_.icacheMisses = fe_.icache().cache().stats().get("misses");
    if (engine_) {
        stats_.optStats = engine_->optStats();
        stats_.engineCandidates = engine_->stats().get("candidates");
        stats_.engineDuplicates =
            engine_->stats().get("duplicate_candidates");
        stats_.engineOptDrops = engine_->stats().get("optimizer_drops");
        stats_.engineBiasEvictions =
            engine_->stats().get("bias_evictions");
        stats_.fcacheEvictions =
            engine_->cache().stats().get("evictions");
        stats_.faultsFetchFlip =
            engine_->stats().get("fault_fetch_flips");
        stats_.faultsPassSabotage =
            engine_->stats().get("fault_pass_sabotage");
        stats_.quarantines = engine_->stats().get("quarantines");
        stats_.quarantineBlocks =
            engine_->stats().get("quarantine_blocks");
        stats_.quarantineDrops =
            engine_->stats().get("quarantine_candidate_drops");
        stats_.quarantineReadmissions =
            engine_->quarantine().stats().get("readmissions");
        stats_.allocFailures = engine_->stats().get("alloc_failures");
    }
    if (online_) {
        stats_.archDigest = online_->digest();
        stats_.archDigestValid = true;
    }
    return stats_;
}

RunStats
simulateTrace(const SimConfig &cfg, trace::TraceSource &src,
              const std::string &workload_name)
{
    Simulator sim(cfg);
    RunStats stats = sim.run(src);
    stats.workload = workload_name;
    return stats;
}

} // namespace replay::sim
