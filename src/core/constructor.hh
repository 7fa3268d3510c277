/**
 * @file
 * The frame constructor (§2, [13]).
 *
 * Consumes the retired instruction stream and synthesizes atomic
 * frames: dynamically biased conditional branches are converted into
 * assertions, internal unconditional jumps are retained (and later
 * removed as NOPs by the optimizer), and indirect jumps with stable
 * observed targets become value assertions so construction can
 * continue through returns.  Frames span 8 to 256 micro-operations.
 *
 * Construction is split in two.  observeShape() runs per retired
 * instruction and decides where candidates start and end; it keeps
 * only the shape (PCs, records, µop counts, block count).  It does not
 * decode: the fetch path that retired the instruction already knows
 * its µop count and passes it in.  Most candidates duplicate a frame
 * the engine already has and are thrown away, so the µop body is
 * translated and built by materialize() only for the ones the engine
 * keeps.  Every conversion decision is a function of the candidate's
 * own records, so materialize() rebuilds exactly the body the
 * instruction-by-instruction construction would have built.
 */

#ifndef REPLAY_CORE_CONSTRUCTOR_HH
#define REPLAY_CORE_CONSTRUCTOR_HH

#include <optional>
#include <vector>

#include "core/biastable.hh"
#include "core/frame.hh"
#include "trace/record.hh"
#include "uop/translator.hh"

namespace replay::core {

/** Construction parameters. */
struct ConstructorConfig
{
    unsigned minUops = 8;
    unsigned maxUops = 256;
    unsigned biasEntries = 4096;
    unsigned biasMinSamples = 32;
    unsigned biasPromoteNum = 60;   ///< promote at >= 15/16 bias
    unsigned biasPromoteDen = 64;
    unsigned targetEntries = 1024;
    unsigned targetStableThreshold = 8;
};

/** A completed frame candidate, ready for the optimizer. */
struct FrameCandidate
{
    uint32_t startPc = 0;
    uint32_t nextPc = 0;
    bool dynamicExit = false;   ///< ends with an unconverted JMPI
    /// The instruction whose observation closed this candidate is part
    /// of it (indirect-exit and loop-back-assert closures) rather than
    /// outside it (unbiased branch, size limit, long-flow closures).
    bool closedByIncludedInst = false;
    std::vector<uop::Uop> uops;
    std::vector<uint16_t> blocks;
    std::vector<uint32_t> pcs;
    /// instUops[i]: µops instruction i translates to, as its fetch path
    /// reported it; materialize() checks each against its translation.
    std::vector<uint8_t> instUops;
    unsigned numBlocks = 1;
    /// µops the candidate spans; known before materialize() fills uops.
    unsigned numUops = 0;

    /** The observed instance (alias profiling, verification). */
    std::vector<trace::TraceRecord> records;
};

/** Retired-stream frame synthesis. */
class FrameConstructor
{
  public:
    explicit FrameConstructor(ConstructorConfig cfg = {});

    /**
     * Observe one retired instruction.  Returns a completed candidate
     * when this instruction closed one off (the instruction itself may
     * have started a fresh accumulation).  uopCount(), observeShape()
     * and materialize(), for callers that have not decoded @p rec.
     */
    std::optional<FrameCandidate> observe(const trace::TraceRecord &rec);

    /**
     * Observe one retired instruction of @p num_uops µops (its
     * translation's length), tracking only the candidate's shape: the
     * learning and closing rules of observe(), without translating or
     * building the µop body.  Returns the candidate this instruction
     * closed (uops and blocks empty, numUops set), or null.  The
     * candidate lives in constructor-owned storage that stays valid
     * until the next call.  When one instruction closes two
     * candidates, the first is returned and both count in
     * candidatesEmitted().
     */
    FrameCandidate *observeShape(const trace::TraceRecord &rec,
                                 unsigned num_uops);

    /**
     * Build @p cand's µop body (uops, blocks) from its records: each
     * instruction translated, every conditional branch an assertion
     * on its observed direction, every indirect jump a value assertion
     * on its observed target except a dynamic exit's final one.
     * Panics if an instruction's translation is not the length its
     * fetch path reported.
     */
    void materialize(FrameCandidate &cand) const;

    /** Translate @p rec to learn its µop count (observe()'s decode). */
    unsigned uopCount(const trace::TraceRecord &rec);

    /** translate() calls made by this constructor (work counter). */
    uint64_t translations() const { return translator_.translations(); }

    /** Discard the current accumulation (pipeline flush, redirect). */
    void abandon();

    /**
     * Return a consumed candidate's storage for reuse.  Callers of
     * observe() hand candidates back once done with them so the
     * accumulate -> emit -> recycle cycle stops allocating once the
     * vectors reach their steady-state capacity.
     */
    void recycle(FrameCandidate &&cand);

    BiasTable &biasTable() { return bias_; }
    TargetTable &targetTable() { return targets_; }

    uint64_t candidatesEmitted() const { return emitted_; }
    uint64_t tooSmallDiscarded() const { return tooSmall_; }

  private:
    /**
     * Close the accumulation.  A candidate below the minimum size is
     * dropped; otherwise it is counted and, unless this observation
     * already closed one, moved to done_ and pointed to by @p closed.
     */
    void finish(uint32_t next_pc, bool dynamic_exit,
                bool closed_by_included, FrameCandidate *&closed);

    /** Add one instruction of @p num_uops µops to the accumulation. */
    void append(const trace::TraceRecord &rec, unsigned num_uops);

    ConstructorConfig cfg_;
    BiasTable bias_;
    TargetTable targets_;
    uop::Translator translator_;

    FrameCandidate acc_;
    FrameCandidate done_;               ///< the last closed candidate
    FrameCandidate spare_;              ///< recycled candidate storage
    std::vector<uop::Uop> flowScratch_; ///< uopCount()'s decode flow
    uint16_t curBlock_ = 0;
    uint64_t emitted_ = 0;
    uint64_t tooSmall_ = 0;
};

} // namespace replay::core

#endif // REPLAY_CORE_CONSTRUCTOR_HH
