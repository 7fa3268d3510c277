#include "core/constructor.hh"

#include "util/logging.hh"

namespace replay::core {

using trace::TraceRecord;
using uop::Op;
using uop::Uop;
using x86::Mnem;

FrameConstructor::FrameConstructor(ConstructorConfig cfg)
    : cfg_(cfg),
      bias_(cfg.biasEntries, cfg.biasMinSamples, cfg.biasPromoteNum,
            cfg.biasPromoteDen),
      targets_(cfg.targetEntries, cfg.targetStableThreshold)
{
}

namespace {

/** Reset a candidate to pristine state, keeping vector capacity. */
void
clearCandidate(FrameCandidate &cand)
{
    cand.startPc = 0;
    cand.nextPc = 0;
    cand.dynamicExit = false;
    cand.closedByIncludedInst = false;
    cand.numBlocks = 1;
    cand.numUops = 0;
    cand.uops.clear();
    cand.blocks.clear();
    cand.pcs.clear();
    cand.instUops.clear();
    cand.records.clear();
}

bool
isIndirect(const x86::Inst &in)
{
    return (in.mnem == Mnem::JMP && in.form != x86::Form::REL) ||
           (in.mnem == Mnem::CALL && in.form != x86::Form::REL) ||
           in.mnem == Mnem::RET;
}

} // anonymous namespace

void
FrameConstructor::abandon()
{
    clearCandidate(acc_);
    curBlock_ = 0;
}

void
FrameConstructor::recycle(FrameCandidate &&cand)
{
    clearCandidate(cand);
    spare_ = std::move(cand);
}

void
FrameConstructor::finish(uint32_t next_pc, bool dynamic_exit,
                         bool closed_by_included, FrameCandidate *&closed)
{
    if (acc_.numUops == 0) {
        abandon();
        return;
    }
    if (acc_.numUops < cfg_.minUops) {
        ++tooSmall_;
        abandon();
        return;
    }
    ++emitted_;
    if (!closed) {
        acc_.nextPc = next_pc;
        acc_.dynamicExit = dynamic_exit;
        acc_.closedByIncludedInst = closed_by_included;
        acc_.numBlocks = curBlock_ + 1;
        // done_'s buffers (the previous candidate's) become the next
        // accumulation's, so the steady state allocates nothing.
        std::swap(acc_, done_);
        closed = &done_;
    }
    abandon();
}

void
FrameConstructor::append(const TraceRecord &rec, unsigned num_uops)
{
    if (acc_.numUops == 0)
        acc_.startPc = rec.pc;
    acc_.numUops += num_uops;
    acc_.pcs.push_back(rec.pc);
    // A count above 255 truncates here and fails materialize()'s
    // per-instruction check.
    acc_.instUops.push_back(uint8_t(num_uops));
    acc_.records.push_back(rec);
}

unsigned
FrameConstructor::uopCount(const TraceRecord &rec)
{
    flowScratch_.clear();
    return translator_.translate(rec.inst, rec.pc, rec.pc + rec.length,
                                 flowScratch_);
}

std::optional<FrameCandidate>
FrameConstructor::observe(const TraceRecord &rec)
{
    FrameCandidate *cand = observeShape(rec, uopCount(rec));
    if (!cand)
        return std::nullopt;
    materialize(*cand);
    std::optional<FrameCandidate> out(std::move(*cand));
    // Refill the moved-out slot from the recycle slot so the next
    // candidate closes into warmed-up buffers instead of empty ones.
    done_ = std::move(spare_);
    spare_ = FrameCandidate{};
    return out;
}

FrameCandidate *
FrameConstructor::observeShape(const TraceRecord &rec, unsigned num_uops)
{
    const x86::Inst &in = rec.inst;
    FrameCandidate *closed = nullptr;

    // ---- learning ------------------------------------------------------
    if (in.isCondBranch())
        bias_.record(rec.pc, rec.taken);
    const bool is_indirect = isIndirect(in);
    if (is_indirect)
        targets_.record(rec.pc, rec.nextPc);

    // ---- hard frame terminators ------------------------------------------
    if (in.mnem == Mnem::LONGFLOW) {
        finish(rec.pc, false, false, closed);
        return closed;
    }

    // ---- size limit ------------------------------------------------------
    if (acc_.numUops + num_uops > cfg_.maxUops)
        finish(rec.pc, false, false, closed);

    // ---- conditional branches -------------------------------------------
    if (in.isCondBranch()) {
        const BranchBias bb = bias_.classify(rec.pc);
        const bool promotable =
            (bb == BranchBias::BIASED_TAKEN && rec.taken) ||
            (bb == BranchBias::BIASED_NOT_TAKEN && !rec.taken);
        if (!promotable) {
            // End the frame before the unbiased branch; the branch is
            // not part of any frame.
            finish(rec.pc, false, false, closed);
            return closed;
        }
        // Promote: materialize() turns the BR into an assertion that
        // the branch keeps going the biased way.  The BR's target is
        // the instruction's.
        const bool backward = rec.taken && in.target <= rec.pc;
        append(rec, num_uops);
        ++curBlock_;
        if (backward) {
            // Loop back-edge: close the frame here so loop frames
            // align to whole iterations.  The frame's successor is its
            // own start (the loop head), so committed loop frames
            // refetch back-to-back from the frame cache, and the
            // assertion fires only on the exit iteration.
            finish(rec.nextPc, false, true, closed);
        }
        return closed;
    }

    // ---- indirect jumps ---------------------------------------------------
    if (is_indirect) {
        const uint32_t stable = targets_.stableTarget(rec.pc);
        append(rec, num_uops);
        if (stable != 0 && stable == rec.nextPc) {
            // materialize() converts it to a value assertion on the
            // jump target; keep building through the return (§3.3).
            ++curBlock_;
            return closed;
        }
        // Unstable target: the frame ends *with* the indirect jump
        // (the Figure 2 frame ends with "jump (ET2)").
        finish(rec.nextPc, true, true, closed);
        return closed;
    }

    // ---- direct jumps and calls continue the frame -------------------------
    append(rec, num_uops);
    if (in.isControl())
        ++curBlock_;
    return closed;
}

void
FrameConstructor::materialize(FrameCandidate &cand) const
{
    cand.uops.clear();
    cand.blocks.clear();
    const size_t n = cand.records.size();
    uint16_t block = 0;
    for (size_t i = 0; i < n; ++i) {
        const TraceRecord &rec = cand.records[i];
        const x86::Inst &in = rec.inst;
        const size_t first = cand.uops.size();
        translator_.translate(in, rec.pc, rec.pc + rec.length, cand.uops);
        panic_if(cand.uops.size() - first != cand.instUops[i],
                 "instruction %zu at 0x%x translated to %zu uops, its "
                 "fetch path reported %u", i, rec.pc,
                 cand.uops.size() - first, unsigned(cand.instUops[i]));
        for (size_t k = first; k < cand.uops.size(); ++k)
            cand.uops[k].instIdx = uint16_t(i);
        cand.blocks.resize(cand.uops.size(), block);

        // Every conditional branch in a candidate was promoted (an
        // unbiased one closes the candidate before it).
        if (in.isCondBranch()) {
            Uop &br = cand.uops.back();
            panic_if(br.op != Op::BR, "branch flow must end in BR");
            br.op = Op::ASSERT;
            br.cc = rec.taken ? br.cc : x86::invert(br.cc);
            br.target = 0;
        } else if (isIndirect(in) && !(cand.dynamicExit && i + 1 == n)) {
            // Every indirect jump but a dynamic exit had a stable
            // target equal to the observed one.
            Uop &jmpi = cand.uops.back();
            panic_if(jmpi.op != Op::JMPI, "indirect flow must end in JMPI");
            jmpi.op = Op::ASSERT;
            jmpi.cc = x86::Cond::E;
            jmpi.valueAssert = true;
            jmpi.assertOp = Op::CMP;
            jmpi.imm = int32_t(rec.nextPc);
        }
        if (in.isControl())
            ++block;
    }
    panic_if(cand.uops.size() != cand.numUops,
             "materialized %zu uops, shape counted %u", cand.uops.size(),
             cand.numUops);
}

} // namespace replay::core
