#include "sim/tracecachefill.hh"

namespace replay::sim {

using trace::TraceRecord;
using x86::Form;
using x86::Mnem;

TraceCacheUnit::TraceCacheUnit(unsigned capacity_uops,
                               unsigned max_branches, unsigned max_uops)
    : maxBranches_(max_branches), maxUops_(max_uops),
      cache_(capacity_uops)
{
}

void
TraceCacheUnit::finishTrace(uint32_t next_pc)
{
    if (uops_.size() >= 4) {
        // Skip rebuilds of an identical or longer cached trace (early
        // exits are handled by prefix matching at fetch).
        const core::FramePtr existing = cache_.probe(startPc_);
        if (!existing || existing->pcs.size() < pcs_.size()) {
            auto trace_frame = std::make_shared<core::Frame>();
            trace_frame->id = nextId_++;
            trace_frame->startPc = startPc_;
            trace_frame->pcs = pcs_;
            trace_frame->nextPc = next_pc;
            trace_frame->dynamicExit = true;    // multiple exits anyway
            trace_frame->body = opt::Optimizer::passthrough(
                uops_, {}, /*frame_semantics=*/false);
            cache_.insert(std::move(trace_frame));
        }
    }
    uops_.clear();
    pcs_.clear();
    branches_ = 0;
}

void
TraceCacheUnit::observe(const TraceRecord &rec)
{
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

} // namespace replay::sim
