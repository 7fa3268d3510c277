/**
 * @file
 * The rePLay engine (Figure 5, right side): glues the frame
 * constructor, the (pipelined) optimization engine, the alias profile,
 * and the frame cache together, and answers the fetch engine's
 * sequencing queries.
 *
 * The engine is single-owner: one session, one driving thread.  The
 * frame cache runs on that thread too, so neither takes a lock.
 */

#ifndef REPLAY_CORE_SEQUENCER_HH
#define REPLAY_CORE_SEQUENCER_HH

#include <deque>

#include "core/aliasprofile.hh"
#include "core/constructor.hh"
#include "core/framecache.hh"
#include "core/quarantine.hh"
#include "opt/datapath.hh"
#include "opt/optimizer.hh"
#include "util/arena.hh"

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
};

/** Frame construction / optimization / caching engine. */
class RePlayEngine
{
  public:
    explicit RePlayEngine(EngineConfig cfg = {});

    /**
     * Observe an instruction of @p num_uops µops retiring at cycle
     * @p now; the fetch path that retired it passes its µop count.
     * May synthesize a frame candidate, push it through the
     * optimization pipeline, and later deposit it in the frame cache.
     */
    void observeRetired(const trace::TraceRecord &rec, unsigned num_uops,
                        uint64_t now);

    /** observeRetired() for a caller that has not decoded @p rec. */
    void
    observeRetired(const trace::TraceRecord &rec, uint64_t now)
    {
        observeRetired(rec, constructor_.uopCount(rec), now);
    }

    /** Deposit any frames whose optimization completed by @p now. */
    void
    drainReady(uint64_t now)
    {
        // Inline: this runs before every retired instruction and frame
        // lookup, and with no frame due the loop test is all it costs.
        while (!pending_.empty() && pending_.front().readyAt <= now) {
            cache_.insert(std::move(pending_.front().frame));
            pending_.pop_front();
        }
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

    FrameCache &cache() { return cache_; }
    Quarantine &quarantine() { return quarantine_; }
    AliasProfile &aliasProfile() { return profile_; }
    FrameConstructor &constructor() { return constructor_; }
    const opt::OptStats &optStats() const { return optStats_; }
    StatGroup &stats() { return stats_; }

  private:
    void enqueueCandidate(FrameCandidate &cand, uint64_t now);

    EngineConfig cfg_;
    FrameConstructor constructor_;
    opt::Optimizer optimizer_;
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
    Counter &allocFailures_{stats_.counter("alloc_failures")};

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
