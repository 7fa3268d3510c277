/**
 * @file
 * Deterministic parallel sweep driver.
 *
 * Every paper figure re-simulates a grid of (workload, machine-config)
 * cells, each of which merges one or more independent hot-spot traces.
 * runSweep() fans the (cell, trace) pairs across a thread pool and
 * merges per-trace RunStats into indexed result slots in canonical
 * trace order — never completion order — so the output is bit-identical
 * to the serial loop and across any --jobs value:
 *
 *   - each (cell, trace) pair runs its own Simulator; every stochastic
 *     component draws from an Rng seeded by that cell's config and that
 *     trace's synthesis seed, so no random state is shared,
 *   - per-trace results land in slots indexed by (cell, trace),
 *   - cell merging folds slots t = 0, 1, 2, ... exactly as
 *     runWorkload()'s serial loop does.
 *
 * Wall-clock and throughput (cells/sec, x86 insts/sec) are measured so
 * parallel speedup is reported, not assumed.
 */

#ifndef REPLAY_SIM_SWEEP_HH
#define REPLAY_SIM_SWEEP_HH

#include <string>
#include <vector>

#include "sim/runner.hh"
#include "trace/corpus.hh"

namespace replay::sim {

/** One (workload, config) grid cell. */
struct SweepCell
{
    const trace::Workload *workload = nullptr;
    std::string label;          ///< column label (machine or ablation)
    SimConfig cfg;
};

struct SweepOptions
{
    /** Worker threads; 0 = defaultSweepJobs(). */
    unsigned jobs = 0;

    /** x86 budget per hot-spot trace; 0 = defaultInstsPerTrace(). */
    uint64_t instsPerTrace = 0;

    /**
     * Run the first (cell, trace) task once, untimed and discarded,
     * before starting the clock.  First-touch costs — lazily built
     * workload programs, decode tables, allocator pools, cold i-cache
     * — land in the warm-up instead of inflating the first measured
     * task, so reported insts/s reflects steady state.  Results are
     * unaffected: the timed sweep re-simulates every task from
     * scratch.
     */
    bool warmup = true;

    /**
     * Optional trace corpus: when set, each (cell, trace) task first
     * looks its (workload, hot-spot) pair up in the manifest and, on a
     * hit long enough to cover the replay budget, replays the recorded
     * container instead of re-synthesizing.  A miss falls back to live
     * synthesis — the streams are digest-pinned identical, so results
     * never depend on which path served a task.  A *corrupt* hit (bad
     * container, stale manifest) aborts the sweep rather than silently
     * degrading: the corpus exists to make inputs reproducible, and a
     * sweep that quietly re-synthesized would defeat that.
     */
    const trace::TraceCorpus *corpus = nullptr;
};

struct SweepResult
{
    /** Merged per-cell stats, in the exact order the cells were given. */
    std::vector<RunStats> cells;

    double wallSeconds = 0;
    unsigned jobs = 1;          ///< worker threads actually used
    unsigned traceRuns = 0;     ///< (cell, trace) simulations executed
    unsigned corpusHits = 0;    ///< tasks replayed from the corpus
    unsigned corpusMisses = 0;  ///< tasks that fell back to synthesis

    uint64_t
    totalInsts() const
    {
        uint64_t sum = 0;
        for (const auto &c : cells)
            sum += c.x86Retired;
        return sum;
    }

    double
    cellsPerSec() const
    {
        return wallSeconds > 0 ? double(cells.size()) / wallSeconds : 0;
    }

    double
    instsPerSec() const
    {
        return wallSeconds > 0 ? double(totalInsts()) / wallSeconds : 0;
    }

    /**
     * FNV-1a64 of every cell fingerprint in canonical cell order.
     * Bit-identical across --jobs values by construction; the
     * replaybench CLI prints it so two runs can be diffed by one line.
     */
    uint64_t digest() const;
};

/**
 * Worker count for sweeps: the REPLAY_SIM_JOBS environment variable
 * (strictly parsed) if set, otherwise the hardware concurrency.
 */
unsigned defaultSweepJobs();

/** Run all @p cells (each expanded per hot-spot trace) across a pool. */
SweepResult runSweep(const std::vector<SweepCell> &cells,
                     const SweepOptions &opts = {});

/**
 * Row-major (workload x config) grid builder: the shape every paper
 * figure uses.  at(result, row, col) indexes the matching RunStats.
 */
std::vector<SweepCell>
gridCells(const std::vector<const trace::Workload *> &workloads,
          const std::vector<std::pair<std::string, SimConfig>> &configs);

/** All 14 standard workloads, as grid rows. */
std::vector<const trace::Workload *> standardWorkloadRows();

/** The four §5.3 machines, as grid columns. */
std::vector<std::pair<std::string, SimConfig>> allMachineColumns();

} // namespace replay::sim

#endif // REPLAY_SIM_SWEEP_HH
