#include "core/sequencer.hh"

#include <algorithm>

#include "fault/faultinjector.hh"
#include "util/logging.hh"

namespace replay::core {

RePlayEngine::RePlayEngine(EngineConfig cfg)
    : cfg_(cfg), constructor_(cfg.constructor),
      optimizer_(cfg.optConfig), cheapOptimizer_(cfg.cheapOptConfig),
      optPipe_(cfg.optPipelineDepth, cfg.optCyclesPerUop),
      cache_(cfg.fcacheCapacityUops), quarantine_(cfg.quarantine)
{
    if (cfg_.governor) {
        cache_.setGovernor(cfg_.governor);
        govPoolId_ = cfg_.governor->registerConsumer("frame_pool");
        govQuarantineId_ = cfg_.governor->registerConsumer("quarantine");
    }
    if (cfg_.optimize && cfg_.tier.enabled) {
        tier_ = std::make_unique<TierEngine>(cfg_.tier, cfg_.optConfig);
        if (cfg_.governor)
            govTierId_ = cfg_.governor->registerConsumer("tier_inbox");
    }
}

void
RePlayEngine::syncGovernor()
{
    if (!cfg_.governor)
        return;
    cfg_.governor->update(govPoolId_, framePool_.arenaFootprintBytes());
    cfg_.governor->update(govQuarantineId_, quarantine_.memoryBytes());
    if (tier_)
        cfg_.governor->update(govTierId_, tier_->memoryBytes());
}

void
RePlayEngine::relievePressure()
{
    if (!cfg_.governor)
        return;
    // Shed LRU frames one at a time, rechecking between evictions so
    // exactly enough is released; the frame being sequenced is pinned
    // and never a victim.
    while (cfg_.governor->pressure() >= Pressure::SOFT &&
           cache_.shedLru()) {
        ++govShedFrames_;
    }
}

void
RePlayEngine::enqueueCandidate(FrameCandidate &cand, uint64_t now)
{
    // Do not rebuild a frame that is already cached for this start PC
    // with the same span (common when the same cold path repeats
    // before the frame gets hot enough to fetch) — or one that is
    // still in flight in the optimization pipeline.  A shorter
    // candidate never displaces a longer frame: the constructor's goal
    // is the largest atomic region, and short variants otherwise arise
    // from every observed early exit (a frame whose assertions keep
    // firing is instead removed by bias eviction, making room for the
    // shorter variant).
    if (cfg_.governor) {
        // Degradation ladder, worst rung first: under CRITICAL
        // pressure no frame is built at all — fetch continues on the
        // conventional path, which needs no new memory.
        if (cfg_.governor->pressure() == Pressure::CRITICAL) {
            ++govSuspended_;
            return;
        }
        // Chaos hook: an injected allocation failure at the candidate
        // build site is survived the same way a real one is below —
        // the candidate is dropped and the pipeline keeps running.
        if (cfg_.governor->allocWouldFail()) {
            ++allocFailures_;
            return;
        }
    }
    if (quarantine_.blocked(cand.startPc, now)) {
        ++stats_.counter("quarantine_candidate_drops");
        return;
    }
    if (const FramePtr existing = cache_.probe(cand.startPc)) {
        if (existing->pcs.size() >= cand.pcs.size()) {
            ++duplicateCandidates_;
            return;
        }
    }
    for (const auto &pending : pending_) {
        if (pending.frame->startPc == cand.startPc &&
            pending.frame->pcs.size() >= cand.pcs.size()) {
            ++duplicateCandidates_;
            return;
        }
    }

    profile_.observeInstance(cand.records);

    uint64_t ready_at = now;
    if (cfg_.optimize) {
        const auto done = optPipe_.schedule(now, cand.numUops);
        if (!done) {
            ++stats_.counter("optimizer_drops");
            return;
        }
        ready_at = *done;
    }

    // The frame build allocates (pool growth, vector copies, optimizer
    // scratch); a real std::bad_alloc anywhere in it is survived by
    // dropping this candidate — the sequencer keeps serving frames it
    // already has and fetch keeps running conventionally.
    try {
        // The candidate is kept: only now build its µop body.
        constructor_.materialize(cand);
        ++materializedCandidates_;
        // A recycled frame keeps its vector capacities; everything
        // else is reassigned below, and the optimizer overwrites body
        // wholesale.
        FramePtr frame = framePool_.acquire();
        frame->id = nextFrameId_++;
        frame->startPc = cand.startPc;
        frame->pcs = cand.pcs;  // copy: the constructor reuses its buffer
        frame->nextPc = cand.nextPc;
        frame->dynamicExit = cand.dynamicExit;
        frame->numBlocks = cand.numBlocks;
        frame->fetches = 0;
        frame->assertFires = 0;
        frame->conflicts = 0;
        frame->tier = FrameTier::FULL;
        frame->generation = 0;
        if (!cfg_.optimize) {
            opt::Optimizer::passthrough(cand.uops, cand.blocks, true,
                                        frame->body);
        } else if (cfg_.governor &&
                   cfg_.governor->pressure() >= Pressure::HARD) {
            // HARD pressure: the cheap pass subset keeps deposits
            // flowing without the full pipeline's scratch footprint;
            // the static verifier discharges the same obligations.
            cheapOptimizer_.optimize(cand.uops, cand.blocks, &profile_,
                                     optStats_, frame->body);
            ++govCheapOpts_;
            if (tier_)
                frame->tier = FrameTier::CHEAP;
        } else if (tier_) {
            // Tiered admission: the cheap subset gets the frame into
            // the cache immediately; the tier engine re-runs the full
            // budget once it proves hot.
            cheapOptimizer_.optimize(cand.uops, cand.blocks, &profile_,
                                     optStats_, frame->body);
            frame->tier = FrameTier::CHEAP;
        } else {
            optimizer_.optimize(cand.uops, cand.blocks, &profile_,
                                optStats_, frame->body);
        }

        bool sabotaged = false;
        uint64_t pristine = 0;
        if (cfg_.injector) {
            pristine = fault::FaultInjector::hashBody(frame->body);
            if (cfg_.injector->maybeSabotagePass(frame->body)) {
                sabotaged =
                    fault::FaultInjector::hashBody(frame->body) !=
                    pristine;
                ++stats_.counter("fault_pass_sabotage");
            }
        }
        frame->bodyHash = pristine;
        frame->faultInjected = sabotaged;
        frame->unsafeStores.clear();
        const opt::OptimizedFrame &body = frame->body;
        for (size_t i = 0; i < body.size(); ++i) {
            if (body.unsafe[i] &&
                (body.code.attr[i] & uop::UA_KIND_STORE)) {
                frame->unsafeStores.push_back(
                    {body.code.instIdx[i], body.code.memSeq[i]});
            }
        }
        std::sort(frame->unsafeStores.begin(),
                  frame->unsafeStores.end());

        pending_.push_back({ready_at, std::move(frame)});
        ++candidates_;
    } catch (const std::bad_alloc &) {
        ++allocFailures_;
        return;
    }
    syncGovernor();
}

void
RePlayEngine::drainDue(uint64_t now)
{
    drainTier();
    while (!pending_.empty() && pending_.front().readyAt <= now) {
        // SOFT pressure and worse: stop admitting new frames — the
        // cache is the largest shrinkable consumer, so growing it
        // under pressure would immediately be shed again.
        if (cfg_.governor &&
            cfg_.governor->pressure() >= Pressure::SOFT) {
            ++govAdmitRejects_;
            pending_.pop_front();
            continue;
        }
        cache_.insert(std::move(pending_.front().frame));
        pending_.pop_front();
    }
    syncGovernor();
    relievePressure();
}

void
RePlayEngine::observeRetired(const trace::TraceRecord &rec, uint64_t now)
{
    drainReady(now);
    if (FrameCandidate *candidate = constructor_.observeShape(rec))
        enqueueCandidate(*candidate, now);
}

FramePtr
RePlayEngine::frameFor(uint32_t pc, uint64_t now)
{
    drainReady(now);
    if (quarantine_.blocked(pc, now)) {
        ++stats_.counter("quarantine_blocks");
        return nullptr;
    }
    FramePtr frame = cache_.lookup(pc);
    if (!frame)
        return nullptr;
    // Pin the in-flight entry: pressure shedding between now and the
    // frame's commit/abort must not victimize the frame being
    // sequenced (the matching unpin is in frameCommitted /
    // frameAborted / frameQuarantined).
    cache_.pin(pc);
    if (cfg_.injector && cfg_.injector->maybeFlipOnFetch(frame->body)) {
        frame->faultInjected =
            fault::FaultInjector::hashBody(frame->body) !=
            frame->bodyHash;
        ++stats_.counter("fault_fetch_flips");
    }
    return frame;
}

void
RePlayEngine::frameCommitted(const FramePtr &frame)
{
    cache_.unpin();
    ++frame->fetches;
    ++frameCommits_;
    maybeScheduleReopt(frame);
}

void
RePlayEngine::maybeScheduleReopt(const FramePtr &frame)
{
    if (!tier_ || !tier_->wantsReopt(*frame))
        return;
    if (cfg_.governor) {
        // Under pressure the tier engine creates no new work; and
        // re-optimization is an allocation site like any other for
        // the chaos campaign.
        if (cfg_.governor->pressure() >= Pressure::SOFT)
            return;
        if (cfg_.governor->allocWouldFail()) {
            ++allocFailures_;
            return;
        }
    }
    try {
        tier_->enqueue(*frame, profile_);
        ++tierEnqueues_;
    } catch (const std::bad_alloc &) {
        ++allocFailures_;
    }
    syncGovernor();
}

void
RePlayEngine::drainTier()
{
    if (!tier_)
        return;
    // Explicit inbox loop (see TierEngine's drain protocol): stop at
    // the first DEFER so publication order stays stable; a consumed
    // result retires its start PC from the in-flight set.
    while (tier_->hasInboxResult()) {
        if (publishReopt(tier_->inboxFront()) ==
            TierEngine::Verdict::DEFER) {
            return;
        }
        tier_->popInboxFront();
    }
}

TierEngine::Verdict
RePlayEngine::publishReopt(ReoptResult &res)
{
    // Versioned-slot check: publish only onto the exact frame the
    // result was built from.  A frame that was evicted, bias-replaced,
    // or rebuilt since makes the result stale.
    const FramePtr cur = cache_.probe(res.startPc);
    if (!cur || cur->id != res.frameId) {
        ++tierStaleDrops_;
        return TierEngine::Verdict::CONSUMED;
    }
    // Pinned-frame invariant: the entry the sequencer currently holds
    // is never swapped under it; the result waits for the next drain.
    if (cache_.isPinned(res.startPc)) {
        ++tierDeferrals_;
        return TierEngine::Verdict::DEFER;
    }
    if (cfg_.governor && cfg_.governor->allocWouldFail()) {
        // Injected allocation failure at the publication site: drop
        // the result; the cheap body keeps running.
        ++allocFailures_;
        return TierEngine::Verdict::CONSUMED;
    }
    try {
        FramePtr frame = framePool_.acquire();
        frame->id = nextFrameId_++;
        frame->startPc = cur->startPc;
        frame->pcs = cur->pcs;
        frame->nextPc = cur->nextPc;
        frame->dynamicExit = cur->dynamicExit;
        frame->numBlocks = cur->numBlocks;
        // Usage statistics carry across the swap so hotness and
        // bias-eviction thresholds keep their history.
        frame->fetches = cur->fetches;
        frame->assertFires = cur->assertFires;
        frame->conflicts = cur->conflicts;
        frame->tier = FrameTier::FULL;
        frame->generation = cur->generation + 1;
        frame->body = std::move(res.body);

        bool sabotaged = false;
        uint64_t pristine = 0;
        if (cfg_.injector) {
            pristine = fault::FaultInjector::hashBody(frame->body);
            if (cfg_.injector->maybeSabotagePass(frame->body)) {
                sabotaged =
                    fault::FaultInjector::hashBody(frame->body) !=
                    pristine;
                ++stats_.counter("fault_pass_sabotage");
            }
        }
        frame->bodyHash = pristine;
        frame->faultInjected = sabotaged;
        frame->unsafeStores.clear();
        const opt::OptimizedFrame &new_body = frame->body;
        for (size_t i = 0; i < new_body.size(); ++i) {
            if (new_body.unsafe[i] &&
                (new_body.code.attr[i] & uop::UA_KIND_STORE)) {
                frame->unsafeStores.push_back(
                    {new_body.code.instIdx[i], new_body.code.memSeq[i]});
            }
        }
        std::sort(frame->unsafeStores.begin(),
                  frame->unsafeStores.end());

        // Static verification gate before publication: a body the
        // linter rejects (including sabotaged ones) never replaces
        // the known-good cheap body.
        if (cfg_.tierVerify && !cfg_.tierVerify(*frame)) {
            ++tierVerifyRejects_;
            return TierEngine::Verdict::CONSUMED;
        }
        const unsigned old_uops = cur->numUops();
        const unsigned new_uops = frame->numUops();
        if (cache_.publish(res.startPc, std::move(frame))) {
            ++tierPublishes_;
            if (new_uops < old_uops)
                tierUopsRemoved_ += old_uops - new_uops;
        } else {
            ++tierStaleDrops_;
        }
        syncGovernor();
    } catch (const std::bad_alloc &) {
        ++allocFailures_;
    }
    return TierEngine::Verdict::CONSUMED;
}

void
RePlayEngine::quiesceTier()
{
    if (!tier_)
        return;
    // One final publication pass — nothing is pinned between trace
    // records, so no result can be deferred forever.
    drainTier();
    tierDroppedAtExit_ += tier_->undrained();
}

void
RePlayEngine::frameAborted(const FramePtr &frame,
                           const FrameOutcome &outcome)
{
    cache_.unpin();
    ++frame->fetches;
    if (outcome.kind == FrameOutcome::Kind::UNSAFE_CONFLICT) {
        ++frame->conflicts;
        ++stats_.counter("unsafe_conflicts");
        // Never speculate on that store site again, and rebuild the
        // frame without it.
        for (const auto &ref : frame->unsafeStores) {
            if (ref.instIdx == outcome.faultIndex) {
                profile_.markDirty(frame->pcs[ref.instIdx],
                                   ref.memSeq);
            }
        }
        cache_.invalidate(frame->startPc);
        return;
    }

    ++frame->assertFires;
    ++assertFires_;
    // A frame whose assertions keep firing has a stale bias; evict it
    // so the constructor can rebuild along the new hot path.
    if (frame->assertFires >= cfg_.evictFireThreshold &&
        frame->assertFires * cfg_.evictFirePenalty >= frame->fetches) {
        cache_.invalidate(frame->startPc);
        ++stats_.counter("bias_evictions");
    }
}

void
RePlayEngine::frameQuarantined(const FramePtr &frame, uint64_t now)
{
    cache_.unpin();
    cache_.invalidate(frame->startPc);
    quarantine_.add(frame->startPc, now);
    ++stats_.counter("quarantines");
    syncGovernor();
}

} // namespace replay::core
