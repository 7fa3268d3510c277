/**
 * @file
 * Seeded, config-driven fault injection for the resilience harness.
 *
 * Three injection sites model the failure classes a deployed rePLay
 * pipeline must survive:
 *
 *  (a) trace source   — bytes of a persisted trace file flipped or the
 *                       file truncated (static helpers; detection is
 *                       the trace container's checksums/length guard),
 *  (b) frame cache    — a bit flipped in a cached frame's micro-ops at
 *                       fetch time (SRAM soft error: the corruption
 *                       persists in the cache until quarantined),
 *  (c) optimizer pass — an optimized frame body mutated as if a pass
 *                       miscompiled it (wrong constant / wrong opcode).
 *
 * Sites (b) and (c) use *armed* mutations: the injector only corrupts
 * micro-ops whose value feeds an architecturally live-out exit binding
 * through an operation where any immediate change is guaranteed to
 * change the produced value (LIMM/ADD/SUB/XOR with an immediate
 * operand).  An armed corruption is therefore always semantically
 * visible at the frame boundary, which is what lets the fault campaign
 * claim a 100% detection obligation for the online verifier: a frame
 * carrying one can never legitimately pass verification.
 */

#ifndef REPLAY_FAULT_FAULTINJECTOR_HH
#define REPLAY_FAULT_FAULTINJECTOR_HH

#include <string>

#include "opt/optimizer.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace replay::fault {

/** Injection-rate knobs (all default off → no behaviour change). */
struct FaultConfig
{
    uint64_t seed = 1;

    /** P(flip a bit in the fetched frame's µops) per frame-cache hit. */
    double fetchFlipRate = 0.0;

    /** P(sabotage the optimized body) per frame leaving the optimizer. */
    double passSabotageRate = 0.0;

    bool
    enabled() const
    {
        return fetchFlipRate > 0.0 || passSabotageRate > 0.0;
    }
};

/** Deterministic fault source for one simulation run. */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultConfig cfg = {});

    /**
     * Site (b): possibly flip an immediate bit in @p body on a frame
     * cache fetch.  Returns true when a corruption was injected.
     */
    bool maybeFlipOnFetch(opt::OptimizedFrame &body);

    /**
     * Site (c): possibly mutate @p body as a miscompiling optimizer
     * pass would.  Returns true when a corruption was injected.
     */
    bool maybeSabotagePass(opt::OptimizedFrame &body);

    /** Site (a): truncate the file at @p path to @p keep_bytes. */
    static bool truncateFile(const std::string &path,
                             uint64_t keep_bytes);

    /**
     * Site (a): XOR the byte at @p offset with @p mask.  Callers aim
     * it at one structural field of a container (a magic, a length, a
     * checksum) or at one chunk's payload, to prove the exact field is
     * guarded and the verdict is exact.  Applying the same mask twice
     * restores the file.
     */
    static bool flipByteAt(const std::string &path, uint64_t offset,
                           uint8_t mask = 0xff);

    /**
     * Hash of @p body's mutable fields (opcodes and immediates).  The
     * sequencer compares against the pristine hash after an injection:
     * a second flip on the same bit reverts the first, and a reverted
     * body must not be accounted as corrupt.
     */
    static uint64_t hashBody(const opt::OptimizedFrame &body);

    StatGroup &stats() { return stats_; }

  private:
    /** Armed corruption of @p body; false if no eligible slot exists. */
    bool corruptBody(opt::OptimizedFrame &body, const char *site);

    FaultConfig cfg_;
    Rng rng_;
    StatGroup stats_{"fault"};
};

} // namespace replay::fault

#endif // REPLAY_FAULT_FAULTINJECTOR_HH
