/**
 * @file
 * Per-run statistics: everything the paper's tables and figures are
 * drawn from.
 */

#ifndef REPLAY_SIM_RESULTS_HH
#define REPLAY_SIM_RESULTS_HH

#include <cstdint>
#include <string>

#include "opt/passes.hh"
#include "timing/accounting.hh"

namespace replay::sim {

/** Counters from one simulation run (one workload trace, one config). */
struct RunStats
{
    std::string workload;
    std::string config;

    uint64_t x86Retired = 0;
    timing::CycleAccounting bins;   ///< sums to total cycles

    // Micro-op accounting.  "Original" counts what the unoptimized
    // decode flows would have executed; "fetched/executed" counts what
    // actually flowed through the pipeline — the difference is the
    // optimizer's removal (Table 3).
    uint64_t uopsExecuted = 0;
    uint64_t uopsOriginal = 0;
    uint64_t loadsExecuted = 0;
    uint64_t loadsOriginal = 0;

    // rePLay events.
    uint64_t frameCommits = 0;
    uint64_t frameAborts = 0;
    uint64_t unsafeConflicts = 0;
    uint64_t frameX86Retired = 0;   ///< x86 insts retired from frames

    uint64_t mispredicts = 0;
    uint64_t icacheMisses = 0;

    // Fetch-source transition profile (diagnostics).
    uint64_t frameAfterFrame = 0;   ///< frame fetch directly after one
    uint64_t icacheAfterFrame = 0;  ///< conventional fetch after a frame

    /** Optimizer counters (RPO only). */
    opt::OptStats optStats;

    // rePLay engine construction counters.
    uint64_t engineCandidates = 0;
    uint64_t engineDuplicates = 0;
    uint64_t engineOptDrops = 0;
    uint64_t engineBiasEvictions = 0;
    uint64_t fcacheEvictions = 0;

    // Fault-injection harness counters (zero unless enabled).
    uint64_t verifyChecks = 0;          ///< online checks performed
    uint64_t verifyDetections = 0;      ///< checks that rejected a frame
    uint64_t corruptFrameCommits = 0;   ///< injected frames that escaped
    uint64_t faultsFetchFlip = 0;       ///< bit flips on frame fetch
    uint64_t faultsPassSabotage = 0;    ///< sabotaged optimized bodies
    uint64_t quarantines = 0;
    uint64_t quarantineBlocks = 0;      ///< fetches denied by quarantine
    uint64_t quarantineDrops = 0;       ///< candidates denied
    uint64_t quarantineReadmissions = 0;

    // Robustness counter (zero in fault-free runs — see the
    // fingerprint() note).
    uint64_t allocFailures = 0;         ///< frame builds lost to bad_alloc

    /**
     * FNV-1a64 of the architectural state at the instruction budget
     * (online verification only): bit-identical across machines and
     * across faulty / fault-free runs when recovery works.
     */
    uint64_t archDigest = 0;
    bool archDigestValid = false;

    uint64_t cycles() const { return bins.total(); }

    /** x86 instructions per cycle — the paper's IPC metric. */
    double
    ipc() const
    {
        return cycles() ? double(x86Retired) / double(cycles()) : 0.0;
    }

    /** Fraction of x86 instructions retired from the frame cache. */
    double
    coverage() const
    {
        return x86Retired ? double(frameX86Retired) / double(x86Retired)
                          : 0.0;
    }

    /** Fraction of dynamic micro-ops the optimizer removed. */
    double
    uopReduction() const
    {
        return uopsOriginal
                   ? 1.0 - double(uopsExecuted) / double(uopsOriginal)
                   : 0.0;
    }

    /** Fraction of dynamic loads removed. */
    double
    loadReduction() const
    {
        return loadsOriginal
                   ? 1.0 - double(loadsExecuted) / double(loadsOriginal)
                   : 0.0;
    }

    /** Accumulate another trace of the same application. */
    void merge(const RunStats &other);

    /**
     * FNV-1a64 over every counter (names, cycle bins, optimizer stats,
     * digest) in a fixed field order.  Two RunStats compare equal iff
     * their fingerprints match; sweep drivers hash these in canonical
     * cell order to assert bit-identical results across --jobs values.
     */
    uint64_t fingerprint() const;
};

} // namespace replay::sim

#endif // REPLAY_SIM_RESULTS_HH
