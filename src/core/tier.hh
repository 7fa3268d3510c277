/**
 * @file
 * Tiered re-optimization (ROADMAP item 5).
 *
 * The paper's engine pays the full pass pipeline on every constructed
 * frame before it can be deposited.  Kistler & Franz's continuous
 * optimization model does better: admit code cheaply, then re-optimize
 * whatever turns out to be hot.  The tier engine implements that split
 * for frames:
 *
 *   - admission runs OptConfig::cheap() (NOP removal + DCE) so frames
 *     reach the cache almost immediately,
 *   - every committed cheap-tier frame that crosses the hotness
 *     threshold is re-optimized with the *full* pass pipeline at once,
 *     on the engine's own thread, and the result is appended to an
 *     inbox,
 *   - the sequencer drains the inbox at its next drain point and
 *     publishes each surviving body with a generation bump — never
 *     while the target entry is pinned, and only after the frame id
 *     check proves the cached frame is still the one the result was
 *     built from.
 *
 * The re-feed trick: the cheap passes only *delete* micro-ops (they
 * never rewrite operand links into producer indices that the
 * architectural form lacks), so the cheap body's surviving
 * FrameUop::uop sequence — with its per-uop block tags — is itself a
 * valid architectural micro-op stream, and re-feeding it to the full
 * optimizer needs no extra stored state.  Re-optimization runs before
 * enqueue() returns, so the live AliasProfile is passed straight
 * through.
 */

#ifndef REPLAY_CORE_TIER_HH
#define REPLAY_CORE_TIER_HH

#include <cstdint>
#include <deque>
#include <vector>

#include "core/frame.hh"
#include "opt/optimizer.hh"
#include "util/flathash.hh"
#include "util/logging.hh"

namespace replay::core {

/** Knobs for the tiered re-optimization engine. */
struct TierConfig
{
    /**
     * Off (default): admission uses the full pipeline and the engine
     * is bit-identical to the untiered build.
     */
    bool enabled = false;

    /** Commits before a cheap-tier frame is re-optimized. */
    unsigned hotThreshold = 2;
};

/** A finished re-optimization, awaiting publication. */
struct ReoptResult
{
    uint64_t frameId = 0;
    uint32_t startPc = 0;
    opt::OptimizedFrame body;

    size_t
    memoryBytes() const
    {
        return body.memoryBytes();
    }
};

/**
 * The re-optimization service: owns the full optimizer, the inbox of
 * finished results, and the set of start PCs with a result awaiting
 * publication.
 */
class TierEngine
{
  public:
    /** What the publication callback did with a drained result. */
    enum class Verdict : uint8_t
    {
        CONSUMED,   ///< published, rejected, stale — done either way
        DEFER,      ///< target entry pinned: retry at the next drain
    };

    TierEngine(const TierConfig &cfg, const opt::OptConfig &full_cfg);

    /** True when @p frame is due for re-optimization. */
    bool wantsReopt(const Frame &frame) const;

    /**
     * Re-optimize @p frame with the full pipeline and queue the result
     * for publication.  May throw std::bad_alloc — the caller drops
     * the re-optimization, exactly like a candidate build.
     */
    void enqueue(const Frame &frame, const opt::AliasHints &live);

    /**
     * Inbox drain protocol (sequencer thread):
     *
     *   while (tier->hasInboxResult()) {
     *       if (publish(tier->inboxFront()) == Verdict::DEFER)
     *           break;                  // pinned: retry at next drain
     *       tier->popInboxFront();      // CONSUMED: done either way
     *   }
     *
     * Stopping at the first DEFER keeps that result queued (order is
     * stable); popInboxFront() also retires the start PC from the
     * in-flight set, re-enabling wantsReopt for that frame.
     */
    bool hasInboxResult() const { return !inbox_.empty(); }

    ReoptResult &
    inboxFront()
    {
        panic_if(inbox_.empty(), "inboxFront on an empty tier inbox");
        return inbox_.front();
    }

    void
    popInboxFront()
    {
        panic_if(inbox_.empty(), "popInboxFront on an empty tier inbox");
        inflight_.erase(inbox_.front().startPc);
        inbox_.pop_front();
    }

    /** Results never drained (end-of-run accounting). */
    size_t undrained() const { return inbox_.size(); }

    /** Undrained footprint for the governor. */
    size_t memoryBytes() const;

  private:
    TierConfig cfg_;
    opt::Optimizer fullOptimizer_;

    /**
     * Start PCs with a result awaiting publication — consulted by
     * wantsReopt so a frame is never re-optimized twice at once.
     */
    FlatSet<uint32_t> inflight_;

    /** Finished but unpublished results (deferred while pinned). */
    std::deque<ReoptResult> inbox_;

    // Re-feed scratch: the cheap body's survivors and block tags.
    std::vector<uop::Uop> uops_;
    std::vector<uint16_t> blocks_;
};

} // namespace replay::core

#endif // REPLAY_CORE_TIER_HH
