/**
 * @file
 * The trace-cache configuration's fill unit (§5.3): continuously
 * builds traces of decoded micro-ops from the retired stream, ending
 * each trace after the third branch micro-operation or at the length
 * limit.  Unlike frames, traces are not atomic: they have multiple
 * exits, embedded conditional branches still consult the predictor,
 * and no optimization is applied.
 */

#ifndef REPLAY_SIM_TRACECACHEFILL_HH
#define REPLAY_SIM_TRACECACHEFILL_HH

#include "core/framecache.hh"
#include "trace/record.hh"
#include "uop/translator.hh"

namespace replay::sim {

/** Fill unit plus trace storage (reuses the frame-cache structure). */
class TraceCacheUnit
{
  public:
    TraceCacheUnit(unsigned capacity_uops, unsigned max_branches,
                   unsigned max_uops);

    /** Observe one instruction retiring from the conventional path. */
    void observe(const trace::TraceRecord &rec);

    /** Trace starting at @p pc, if cached. */
    core::FramePtr lookup(uint32_t pc) { return cache_.lookup(pc); }

    core::FrameCache &cache() { return cache_; }

  private:
    void finishTrace(uint32_t next_pc);

    unsigned maxBranches_;
    unsigned maxUops_;
    uop::Translator translator_;
    core::FrameCache cache_;

    // Accumulation state.
    std::vector<uop::Uop> flow_;    ///< translation scratch
    std::vector<uop::Uop> uops_;
    std::vector<uint32_t> pcs_;
    uint32_t startPc_ = 0;
    unsigned branches_ = 0;
    uint64_t nextId_ = 1;
};

} // namespace replay::sim

#endif // REPLAY_SIM_TRACECACHEFILL_HH
