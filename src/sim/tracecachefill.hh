/**
 * @file
 * The trace-cache configuration's fill unit (§5.3): continuously
 * builds traces of decoded micro-ops from the retired stream, ending
 * each trace after the third branch micro-operation or at the length
 * limit.  Unlike frames, traces are not atomic: they have multiple
 * exits, embedded conditional branches still consult the predictor,
 * and no optimization is applied.
 *
 * The fill unit tracks only each trace's shape (PCs, instructions, µop
 * count, branch count): the fetch path that retired an instruction
 * passes its µop count, and a closed trace is translated only when it
 * is inserted, i.e. when the cache does not already hold an identical
 * or longer trace at its start PC.
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

    /**
     * Observe one instruction of @p num_uops µops (its translation's
     * length) retiring from the conventional path.  Panics at insert
     * if a trace's translation is not the length its instructions'
     * counts add up to.
     */
    void observe(const trace::TraceRecord &rec, unsigned num_uops);

    /** observe() for a caller that has not decoded @p rec. */
    void observe(const trace::TraceRecord &rec);

    /** Trace starting at @p pc, if cached. */
    core::FramePtr lookup(uint32_t pc) { return cache_.lookup(pc); }

    core::FrameCache &cache() { return cache_; }

    /** translate() calls made by this unit (work counter). */
    uint64_t translations() const { return translator_.translations(); }

  private:
    /** What a trace keeps of each instruction until it is inserted. */
    struct PendingInst
    {
        x86::Inst inst;
        uint8_t length;
    };

    void finishTrace(uint32_t next_pc);

    unsigned maxBranches_;
    unsigned maxUops_;
    uop::Translator translator_;
    core::FrameCache cache_;

    // Accumulation state.
    std::vector<PendingInst> insts_;
    std::vector<uint32_t> pcs_;
    unsigned numUops_ = 0;
    uint32_t startPc_ = 0;
    unsigned branches_ = 0;
    std::vector<uop::Uop> uops_;    ///< translation scratch
    uint64_t nextId_ = 1;
};

} // namespace replay::sim

#endif // REPLAY_SIM_TRACECACHEFILL_HH
