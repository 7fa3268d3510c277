#include "sim/results.hh"

namespace replay::sim {

void
RunStats::merge(const RunStats &other)
{
    x86Retired += other.x86Retired;
    bins.merge(other.bins);
    uopsExecuted += other.uopsExecuted;
    uopsOriginal += other.uopsOriginal;
    loadsExecuted += other.loadsExecuted;
    loadsOriginal += other.loadsOriginal;
    frameCommits += other.frameCommits;
    frameAborts += other.frameAborts;
    unsafeConflicts += other.unsafeConflicts;
    frameX86Retired += other.frameX86Retired;
    mispredicts += other.mispredicts;
    icacheMisses += other.icacheMisses;
    frameAfterFrame += other.frameAfterFrame;
    icacheAfterFrame += other.icacheAfterFrame;
    engineCandidates += other.engineCandidates;
    engineDuplicates += other.engineDuplicates;
    engineOptDrops += other.engineOptDrops;
    engineBiasEvictions += other.engineBiasEvictions;
    fcacheEvictions += other.fcacheEvictions;
    verifyChecks += other.verifyChecks;
    verifyDetections += other.verifyDetections;
    corruptFrameCommits += other.corruptFrameCommits;
    faultsFetchFlip += other.faultsFetchFlip;
    faultsPassSabotage += other.faultsPassSabotage;
    quarantines += other.quarantines;
    quarantineBlocks += other.quarantineBlocks;
    quarantineDrops += other.quarantineDrops;
    quarantineReadmissions += other.quarantineReadmissions;
    allocFailures += other.allocFailures;
    // Combine digests with modular addition: commutative and
    // associative, so a merged digest is independent of the order the
    // per-trace results arrive in (serial loop or parallel sweep).
    // The old fold (digest * FNV_PRIME ^ other) depended on completion
    // order and would have made parallel runs nondeterministic.
    if (!archDigestValid) {
        archDigest = other.archDigest;
        archDigestValid = other.archDigestValid;
    } else if (other.archDigestValid) {
        archDigest += other.archDigest;
    }
    optStats.merge(other.optStats);
}

namespace {

struct Fnv
{
    uint64_t h = 14695981039346656037ULL;

    void
    mix(uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }

    void
    mix(const std::string &s)
    {
        mix(uint64_t(s.size()));
        for (const char c : s) {
            h ^= uint8_t(c);
            h *= 1099511628211ULL;
        }
    }
};

} // anonymous namespace

uint64_t
RunStats::fingerprint() const
{
    Fnv f;
    f.mix(workload);
    f.mix(config);
    f.mix(x86Retired);
    for (unsigned i = 0; i < timing::NUM_CYCLE_BINS; ++i)
        f.mix(bins.get(timing::CycleBin(i)));
    f.mix(uopsExecuted);
    f.mix(uopsOriginal);
    f.mix(loadsExecuted);
    f.mix(loadsOriginal);
    f.mix(frameCommits);
    f.mix(frameAborts);
    f.mix(unsafeConflicts);
    f.mix(frameX86Retired);
    f.mix(mispredicts);
    f.mix(icacheMisses);
    f.mix(frameAfterFrame);
    f.mix(icacheAfterFrame);
    f.mix(engineCandidates);
    f.mix(engineDuplicates);
    f.mix(engineOptDrops);
    f.mix(engineBiasEvictions);
    f.mix(fcacheEvictions);
    f.mix(verifyChecks);
    f.mix(verifyDetections);
    f.mix(corruptFrameCommits);
    f.mix(faultsFetchFlip);
    f.mix(faultsPassSabotage);
    f.mix(quarantines);
    f.mix(quarantineBlocks);
    f.mix(quarantineDrops);
    f.mix(quarantineReadmissions);
    // allocFailures joined the struct after the golden fingerprints
    // were frozen.  It is zero in fault-free runs, so it contributes
    // only when nonzero — behind a sentinel so such a run can never
    // collide with a clean run that happens to share the other
    // counters.  The block keeps its frozen slot layout: the retired
    // resource governor's seven degradation counters before
    // allocFailures, and the retired stall counter and the governor's
    // peak-footprint word after it, are mixed as zero words.
    if (allocFailures) {
        f.mix(uint64_t(0x60767265646e6f67ULL)); // sentinel: "governed"
        for (unsigned i = 0; i < 7; ++i)
            f.mix(uint64_t(0));
        f.mix(allocFailures);
        f.mix(uint64_t(0));
        f.mix(uint64_t(0));
    }
    f.mix(archDigest);
    f.mix(uint64_t(archDigestValid));
    f.mix(optStats.framesOptimized);
    f.mix(optStats.inputUops);
    f.mix(optStats.outputUops);
    f.mix(optStats.inputLoads);
    f.mix(optStats.outputLoads);
    f.mix(optStats.nopsRemoved);
    f.mix(optStats.assertsCombined);
    f.mix(optStats.constantsFolded);
    f.mix(optStats.copiesPropagated);
    f.mix(optStats.reassociations);
    f.mix(optStats.cseRemoved);
    f.mix(optStats.loadsCseRemoved);
    f.mix(optStats.loadsForwarded);
    f.mix(optStats.speculativeLoadsRemoved);
    f.mix(optStats.unsafeStoresMarked);
    f.mix(optStats.deadRemoved);
    return f.h;
}

} // namespace replay::sim
