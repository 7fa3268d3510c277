/**
 * @file
 * The rePLay engine (Figure 5, right side): glues the frame
 * constructor, the (pipelined) optimization engine, the alias profile,
 * and the frame cache together, and answers the fetch engine's
 * sequencing queries.
 *
 * The engine is single-owner: one session, one driving thread.  The
 * frame cache, the tier engine and the governor it reports to all run
 * on that thread, so none of them takes a lock.
 */

#ifndef REPLAY_CORE_SEQUENCER_HH
#define REPLAY_CORE_SEQUENCER_HH

#include <deque>
#include <memory>

#include <functional>

#include "core/aliasprofile.hh"
#include "core/constructor.hh"
#include "core/framecache.hh"
#include "core/quarantine.hh"
#include "core/tier.hh"
#include "opt/datapath.hh"
#include "opt/optimizer.hh"
#include "util/arena.hh"
#include "util/governor.hh"

namespace replay::fault {
class FaultInjector;
} // namespace replay::fault

namespace replay::core {

/** Configuration of the whole rePLay engine. */
struct EngineConfig
{
    bool optimize = true;               ///< RPO when true, RP when false
    opt::OptConfig optConfig;
    unsigned fcacheCapacityUops = 16384;
    ConstructorConfig constructor;
    unsigned optPipelineDepth = 3;
    unsigned optCyclesPerUop = 10;

    /** Evict a frame once fires*firePenalty >= fetches and fires >= 4. */
    unsigned evictFireThreshold = 4;
    unsigned evictFirePenalty = 8;

    /** Blacklist policy for verifier-rejected frames. */
    QuarantineConfig quarantine;

    /**
     * Optional fault injector (owned by the simulator).  When set, the
     * engine exposes the two frame-side injection points: bit flips on
     * frame-cache fetch and sabotage of optimized bodies.
     */
    fault::FaultInjector *injector = nullptr;

    /**
     * Optional resource governor (owned by the simulator/session).
     * When set, the engine reports the footprint of its cache, frame
     * pool, and quarantine table, and degrades under pressure: SOFT
     * sheds cached frames and rejects deposits, HARD optimizes new
     * frames with cheapOptConfig only, CRITICAL suspends frame
     * construction entirely.  Null = ungoverned (seed behaviour).
     */
    ResourceGovernor *governor = nullptr;

    /** The degraded pass subset used under HARD pressure. */
    opt::OptConfig cheapOptConfig = opt::OptConfig::cheap();

    /**
     * Tiered re-optimization (ROADMAP item 5).  With tier.enabled off
     * (default) the engine is untiered and bit-identical to the seed:
     * frames get the full pipeline at admission.  With it on, frames
     * are admitted with cheapOptConfig and hot ones are re-optimized
     * with the full budget, then republished.
     */
    TierConfig tier;

    /**
     * Validation gate for re-optimized bodies: called with the rebuilt
     * frame before publication; returning false keeps the cheap body.
     * The engine layer cannot link the static verifier directly, so
     * the simulator injects a lintFrame-based gate here (null skips
     * the gate).
     */
    std::function<bool(const Frame &)> tierVerify;
};

/** Frame construction / optimization / caching engine. */
class RePlayEngine
{
  public:
    explicit RePlayEngine(EngineConfig cfg = {});

    /**
     * Observe an instruction retiring from the conventional (ICache)
     * path at cycle @p now.  May synthesize a frame candidate, push it
     * through the optimization pipeline, and later deposit it in the
     * frame cache.
     */
    void observeRetired(const trace::TraceRecord &rec, uint64_t now);

    /** Deposit any frames whose optimization completed by @p now. */
    void
    drainReady(uint64_t now)
    {
        // Called before every retired instruction and frame lookup;
        // with no tier engine, no governor and no frame due there is
        // nothing to deposit, publish or report.
        if (!tier_ && !cfg_.governor &&
            (pending_.empty() || pending_.front().readyAt > now))
            return;
        drainDue(now);
    }

    /** Frame starting at @p pc available for fetch at @p now. */
    FramePtr frameFor(uint32_t pc, uint64_t now);

    /** A fetched frame committed. */
    void frameCommitted(const FramePtr &frame);

    /** A fetched frame aborted (assert fire / unsafe conflict). */
    void frameAborted(const FramePtr &frame, const FrameOutcome &outcome);

    /**
     * The online verifier rejected @p frame before commit: evict it and
     * blacklist its start PC (decaying re-admission), so fetch degrades
     * to the conventional path instead of replaying a bad frame.
     */
    void frameQuarantined(const FramePtr &frame, uint64_t now);

    /** Pipeline flush (long-flow instruction): drop the accumulation. */
    void flush() { constructor_.abandon(); }

    /**
     * End-of-run tier teardown: one final publication pass over the
     * inbox; whatever it cannot publish counts as dropped at exit.
     * Idempotent; a no-op for untiered engines.
     */
    void quiesceTier();

    /** The tier engine, or null when tiering is off (tests). */
    const TierEngine *tier() const { return tier_.get(); }

    FrameCache &cache() { return cache_; }
    Quarantine &quarantine() { return quarantine_; }
    AliasProfile &aliasProfile() { return profile_; }
    FrameConstructor &constructor() { return constructor_; }
    const opt::OptStats &optStats() const { return optStats_; }
    StatGroup &stats() { return stats_; }

  private:
    void enqueueCandidate(FrameCandidate &cand, uint64_t now);

    /** drainReady() past its fast path. */
    void drainDue(uint64_t now);

    /** Re-optimize a committed cheap-tier frame once it is hot. */
    void maybeScheduleReopt(const FramePtr &frame);

    /** Drain finished re-optimizations and publish the valid ones. */
    void drainTier();

    /** Publish (or drop) one re-optimized result; see TierEngine. */
    TierEngine::Verdict publishReopt(ReoptResult &res);

    /**
     * Governor plumbing: report the engine-owned footprints (frame
     * pool arena, quarantine table) and, while pressure is SOFT or
     * worse, shed LRU frames until it relieves (the pinned in-flight
     * frame is never shed).
     */
    void syncGovernor();
    void relievePressure();

    EngineConfig cfg_;
    FrameConstructor constructor_;
    opt::Optimizer optimizer_;
    opt::Optimizer cheapOptimizer_;
    opt::OptimizerPipeline optPipe_;
    FrameCache cache_;
    Quarantine quarantine_;
    AliasProfile profile_;
    opt::OptStats optStats_;
    StatGroup stats_{"replay"};
    // Bound once (StatGroup's map gives stable references): these fire
    // on every candidate / frame event and are too hot for a string
    // lookup per increment.
    Counter &candidates_{stats_.counter("candidates")};
    Counter &duplicateCandidates_{stats_.counter("duplicate_candidates")};
    // Candidates whose µop body was built (work counter; not part of
    // RunStats or any fingerprint).
    Counter &materializedCandidates_{
        stats_.counter("materialized_candidates")};
    Counter &frameCommits_{stats_.counter("frame_commits")};
    Counter &assertFires_{stats_.counter("assert_fires")};
    // Degradation-ladder counters (all zero while ungoverned).
    Counter &govShedFrames_{stats_.counter("gov_shed_frames")};
    Counter &govAdmitRejects_{stats_.counter("gov_admit_rejects")};
    Counter &govCheapOpts_{stats_.counter("gov_cheap_opts")};
    Counter &govSuspended_{stats_.counter("gov_suspended")};
    Counter &allocFailures_{stats_.counter("alloc_failures")};
    // Tiered re-optimization counters (all zero with tiering off).
    Counter &tierEnqueues_{stats_.counter("tier_enqueues")};
    Counter &tierPublishes_{stats_.counter("tier_publishes")};
    Counter &tierUopsRemoved_{stats_.counter("tier_uops_removed")};
    Counter &tierVerifyRejects_{stats_.counter("tier_verify_rejects")};
    Counter &tierStaleDrops_{stats_.counter("tier_stale_drops")};
    Counter &tierDeferrals_{stats_.counter("tier_deferrals")};
    Counter &tierDroppedAtExit_{stats_.counter("tier_dropped_at_exit")};

    /** Governor consumer ids (valid only when cfg_.governor). */
    unsigned govPoolId_ = 0;
    unsigned govQuarantineId_ = 0;
    unsigned govTierId_ = 0;

    std::unique_ptr<TierEngine> tier_;

    /**
     * Recycles Frame objects: a frame freed by eviction returns its
     * storage (pcs / body / unsafeStores vectors, capacity intact) for
     * the next candidate instead of hitting the heap.  Declared after
     * pending_ users conceptually, but destruction order is safe either
     * way: the pool's core outlives its handles via shared ownership.
     */
    ObjectPool<Frame> framePool_;

    struct Pending
    {
        uint64_t readyAt;
        FramePtr frame;
    };
    std::deque<Pending> pending_;
    uint64_t nextFrameId_ = 1;
};

} // namespace replay::core

#endif // REPLAY_CORE_SEQUENCER_HH
