#include "sim/tracecachefill.hh"

#include "util/logging.hh"

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
    if (numUops_ >= 4) {
        // Skip rebuilds of an identical or longer cached trace (early
        // exits are handled by prefix matching at fetch).
        const core::FramePtr existing = cache_.probe(startPc_);
        if (!existing || existing->pcs.size() < pcs_.size()) {
            uops_.clear();
            for (size_t i = 0; i < insts_.size(); ++i) {
                const size_t first = uops_.size();
                translator_.translate(insts_[i].inst, pcs_[i],
                                      pcs_[i] + insts_[i].length, uops_);
                for (size_t k = first; k < uops_.size(); ++k)
                    uops_[k].instIdx = uint16_t(i);
            }
            panic_if(uops_.size() != numUops_,
                     "trace at 0x%x translated to %zu uops, its fetch "
                     "paths reported %u", startPc_, uops_.size(),
                     numUops_);
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
    insts_.clear();
    pcs_.clear();
    numUops_ = 0;
    branches_ = 0;
}

void
TraceCacheUnit::observe(const TraceRecord &rec)
{
    uops_.clear();
    observe(rec, translator_.translate(rec.inst, rec.pc,
                                       rec.pc + rec.length, uops_));
}

void
TraceCacheUnit::observe(const TraceRecord &rec, unsigned num_uops)
{
    const x86::Inst &in = rec.inst;
    if (in.mnem == Mnem::LONGFLOW) {
        finishTrace(rec.pc);
        return;
    }

    if (numUops_ + num_uops > maxUops_)
        finishTrace(rec.pc);

    if (numUops_ == 0)
        startPc_ = rec.pc;
    numUops_ += num_uops;
    insts_.push_back({in, rec.length});
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
