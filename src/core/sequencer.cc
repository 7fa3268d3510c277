#include "core/sequencer.hh"

#include <algorithm>

#include "fault/faultinjector.hh"

namespace replay::core {

RePlayEngine::RePlayEngine(EngineConfig cfg)
    : cfg_(cfg), constructor_(cfg.constructor),
      optimizer_(cfg.optConfig),
      optPipe_(cfg.optPipelineDepth, cfg.optCyclesPerUop),
      cache_(cfg.fcacheCapacityUops), quarantine_(cfg.quarantine)
{
}

void
RePlayEngine::enqueueCandidate(FrameCandidate &cand, uint64_t now)
{
    if (quarantine_.blocked(cand.startPc, now)) {
        ++stats_.counter("quarantine_candidate_drops");
        return;
    }
    // Do not rebuild a frame that is already cached for this start PC
    // with the same span (common when the same cold path repeats
    // before the frame gets hot enough to fetch) — or one that is
    // still in flight in the optimization pipeline.  A shorter
    // candidate never displaces a longer frame: the constructor's goal
    // is the largest atomic region, and short variants otherwise arise
    // from every observed early exit (a frame whose assertions keep
    // firing is instead removed by bias eviction, making room for the
    // shorter variant).
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
        frame->instUops = cand.instUops;
        frame->nextPc = cand.nextPc;
        frame->dynamicExit = cand.dynamicExit;
        frame->numBlocks = cand.numBlocks;
        frame->fetches = 0;
        frame->assertFires = 0;
        frame->conflicts = 0;
        if (!cfg_.optimize) {
            opt::Optimizer::passthrough(cand.uops, cand.blocks, true,
                                        frame->body);
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
    }
}

void
RePlayEngine::observeRetired(const trace::TraceRecord &rec,
                             unsigned num_uops, uint64_t now)
{
    drainReady(now);
    if (FrameCandidate *candidate = constructor_.observeShape(rec, num_uops))
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
    ++frame->fetches;
    ++frameCommits_;
}

void
RePlayEngine::frameAborted(const FramePtr &frame,
                           const FrameOutcome &outcome)
{
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
    cache_.invalidate(frame->startPc);
    quarantine_.add(frame->startPc, now);
    ++stats_.counter("quarantines");
}

} // namespace replay::core
