#include "core/tier.hh"

#include "util/logging.hh"

namespace replay::core {

TierEngine::TierEngine(const TierConfig &cfg,
                       const opt::OptConfig &full_cfg)
    : cfg_(cfg), fullOptimizer_(full_cfg)
{
    panic_if(!cfg_.enabled, "TierEngine built with tiering disabled");
}

bool
TierEngine::wantsReopt(const Frame &frame) const
{
    return frame.tier == FrameTier::CHEAP &&
           frame.fetches >= cfg_.hotThreshold &&
           !inflight_.contains(frame.startPc);
}

void
TierEngine::enqueue(const Frame &frame, const opt::AliasHints &live)
{
    // The cheap passes only delete micro-ops, so the survivors' uop
    // fields are still in architectural form and re-feed the remapper
    // directly; block tags ride along for block-scoped configs.
    const size_t n_body = frame.body.size();
    uops_.clear();
    blocks_.clear();
    for (size_t i = 0; i < n_body; ++i) {
        uops_.push_back(frame.body.code.get(i));
        blocks_.push_back(frame.body.block[i]);
    }

    ReoptResult res;
    res.frameId = frame.id;
    res.startPc = frame.startPc;
    // The engine's OptStats count admission work only; the full
    // re-run's counters are not merged.
    opt::OptStats reopt_stats;
    fullOptimizer_.optimize(uops_, blocks_, &live, reopt_stats,
                            res.body);
    // The optimizer counted the cheap survivors as its input; restore
    // the raw decode-flow accounting so dynamic uop-reduction metrics
    // keep comparing against the original.
    res.body.inputUops = frame.body.inputUops;
    res.body.inputLoads = frame.body.inputLoads;

    inflight_.insert(frame.startPc);
    inbox_.push_back(std::move(res));
}

size_t
TierEngine::memoryBytes() const
{
    size_t bytes = inflight_.memoryBytes();
    for (const auto &res : inbox_)
        bytes += sizeof(res) + res.memoryBytes();
    return bytes;
}

} // namespace replay::core
