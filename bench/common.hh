/**
 * @file
 * Shared helpers for the text benchmark binaries.  The paper's result
 * figures are rendered by `tools/replaybench`; these binaries cover
 * Tables 1 and 2, the design-choice ablations and the fault campaign.
 *
 * Grid-shaped benches run a sim::Grid (sim/experiments.hh) through the
 * deterministic parallel sweep driver: results are bit-identical to
 * the serial loop for any worker count.  REPLAY_SIM_JOBS caps the
 * workers (default: hardware concurrency); REPLAY_SIM_INSTS lengthens
 * the traces.
 */

#ifndef REPLAY_BENCH_COMMON_HH
#define REPLAY_BENCH_COMMON_HH

#include <cstdio>
#include <string>

#include "sim/experiments.hh"
#include "util/table.hh"

namespace replay::bench {

inline void
banner(const std::string &title, const std::string &paper_note)
{
    std::printf("=====================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("(paper reference: %s)\n", paper_note.c_str());
    std::printf("traces: %llu x86 instructions per hot spot "
                "(REPLAY_SIM_INSTS overrides), %u sweep workers "
                "(REPLAY_SIM_JOBS overrides)\n\n",
                (unsigned long long)sim::defaultInstsPerTrace(),
                sim::defaultSweepJobs());
}

/** Print the sweep's measured wall clock and throughput. */
inline void
throughputFooter(const sim::SweepResult &result)
{
    std::printf("sweep: %u cells (%u trace runs) in %.2fs with %u "
                "worker(s) — %.2f cells/s, %.2fM x86 insts/s, "
                "digest %016llx\n\n",
                unsigned(result.cells.size()), result.traceRuns,
                result.wallSeconds, result.jobs, result.cellsPerSec(),
                result.instsPerSec() / 1e6,
                (unsigned long long)result.digest());
}

} // namespace replay::bench

#endif // REPLAY_BENCH_COMMON_HH
