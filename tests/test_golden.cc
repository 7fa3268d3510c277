/**
 * @file
 * Golden end-to-end snapshot tests.
 *
 * Pins the full simulation pipeline — trace synthesis, decode, frame
 * construction, optimization, timing, stat merging — to checked-in
 * RunStats fingerprints for every standard workload under RP and RPO
 * at a fixed 50k-instruction budget.  Any change that perturbs
 * simulated behaviour (instead of just making the simulator faster)
 * shows up here as a fingerprint mismatch.
 *
 * The values were captured with:
 *
 *   REPLAY_SIM_INSTS=50000 ./build/tools/replaybench --json --jobs 1 \
 *       table3
 *
 * and must only ever be refreshed for an *intentional* behavioural
 * change, with the replaybench digests called out in the commit.
 * Performance work — allocator changes, index rewrites, batching —
 * must keep them bit-identical; that is the contract the tier-1
 * perf-smoke gate (tools/perfgate) builds on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "sim/experiments.hh"
#include "sim/runner.hh"
#include "trace/chunk.hh"
#include "trace/corpus.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"

using namespace replay;

namespace {

constexpr uint64_t GOLDEN_BUDGET = 50000;

struct GoldenCell
{
    const char *workload;
    sim::Machine machine;
    const char *fingerprint;    ///< RunStats::fingerprint(), hex
    uint64_t x86Retired;        ///< budget x numTraces
};

/**
 * gtest writes the printed parameter into each case's listed name, and
 * ctest keeps it in the test name.  Without this overload it is a raw
 * byte dump whose pointer bytes differ from build to build and run to
 * run (ASLR), so the same test would carry a different name each time.
 */
void
PrintTo(const GoldenCell &cell, std::ostream *os)
{
    *os << cell.workload << "/" << sim::machineName(cell.machine);
}

/** One row per (workload, machine): the frozen behaviour snapshot. */
constexpr GoldenCell kGolden[] = {
    {"bzip2", sim::Machine::RP, "5d118401fc09b809", 50000},
    {"bzip2", sim::Machine::RPO, "c27fcc4bfb59e86a", 50000},
    {"crafty", sim::Machine::RP, "5b608b8700fbf4e2", 50000},
    {"crafty", sim::Machine::RPO, "f851882959c6a63c", 50000},
    {"eon", sim::Machine::RP, "7fb3f0e2d360ee21", 50000},
    {"eon", sim::Machine::RPO, "0de3879c3fe20ad9", 50000},
    {"gzip", sim::Machine::RP, "89ac0092a4d21833", 50000},
    {"gzip", sim::Machine::RPO, "aa96aafbb71b852c", 50000},
    {"parser", sim::Machine::RP, "391ab3ff2763efda", 50000},
    {"parser", sim::Machine::RPO, "919f37629891c73d", 50000},
    {"twolf", sim::Machine::RP, "59bd8bc943dd74f8", 50000},
    {"twolf", sim::Machine::RPO, "f6cd11affaa196a6", 50000},
    {"vortex", sim::Machine::RP, "81343e756eccfa69", 50000},
    {"vortex", sim::Machine::RPO, "01779bfe5966c9f7", 50000},
    {"access", sim::Machine::RP, "93e93e5cb3be3859", 100000},
    {"access", sim::Machine::RPO, "0813dbac94a047ff", 100000},
    {"dream", sim::Machine::RP, "c0bf56502b09f897", 100000},
    {"dream", sim::Machine::RPO, "0d44a5641cff6fc5", 100000},
    {"excel", sim::Machine::RP, "b52f14ce2d74aab1", 150000},
    {"excel", sim::Machine::RPO, "ff2e808b9519ad3f", 150000},
    {"lotus", sim::Machine::RP, "e5c5c4baec2e1cd9", 100000},
    {"lotus", sim::Machine::RPO, "d3bb869f61460bce", 100000},
    {"photo", sim::Machine::RP, "5edb839440f73a12", 100000},
    {"photo", sim::Machine::RPO, "a06b0f545dfd0c08", 100000},
    {"power", sim::Machine::RP, "408a7847d57f0ed3", 150000},
    {"power", sim::Machine::RPO, "6671fb720daa05cb", 150000},
    {"sound", sim::Machine::RP, "cddc2871424af778", 150000},
    {"sound", sim::Machine::RPO, "4c24b2e25c763ed8", 150000},
};

/** The whole-grid digest of the same 28 cells (replaybench table3). */
constexpr const char *GOLDEN_GRID_DIGEST = "1eb94e7a31a2de33";

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", (unsigned long long)v);
    return buf;
}

/**
 * The registry's table3 grid — exactly the grid `replaybench table3`
 * runs — so the goldens pin its rows, columns and labels.
 */
sim::SweepResult
runTable3(const sim::SweepOptions &opts)
{
    sim::Grid grid = sim::findExperiment("table3")->grid();
    grid.run(opts);
    return grid.result;
}

class Golden : public ::testing::TestWithParam<GoldenCell>
{
};

} // namespace

TEST_P(Golden, FingerprintIsBitIdentical)
{
    const GoldenCell &cell = GetParam();
    const auto &workload = trace::findWorkload(cell.workload);
    const sim::RunStats stats = sim::runWorkload(
        workload, sim::SimConfig::make(cell.machine), GOLDEN_BUDGET);

    EXPECT_EQ(stats.x86Retired, cell.x86Retired);
    EXPECT_EQ(hex64(stats.fingerprint()), cell.fingerprint)
        << cell.workload << "/" << sim::machineName(cell.machine)
        << " diverged from the golden snapshot: either an unintended "
           "behaviour change, or refresh tests/test_golden.cc for an "
           "intentional one";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Golden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenCell> &cell) {
        return std::string(cell.param.workload) + "_" +
               sim::machineName(cell.param.machine);
    });

/**
 * The parallel sweep driver folds the same 28 cells to the same
 * digest — golden values stay comparable with replaybench output and
 * the perfgate determinism check, for any worker count.
 */
TEST(GoldenSweep, GridDigestMatchesReplaybench)
{
    sim::SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = GOLDEN_BUDGET;
    opts.warmup = false;        // determinism, not timing, is at stake
    const auto result = runTable3(opts);
    EXPECT_EQ(hex64(result.digest()), GOLDEN_GRID_DIGEST);
    ASSERT_EQ(result.cells.size(), std::size(kGolden));
    for (size_t i = 0; i < result.cells.size(); ++i) {
        EXPECT_EQ(hex64(result.cells[i].fingerprint()),
                  kGolden[i].fingerprint)
            << "sweep cell " << i << " (" << result.cells[i].workload
            << "/" << result.cells[i].config << ")";
    }
}

/**
 * Sweeping over *recorded v3 trace containers* (via a corpus manifest)
 * must be bit-identical to live synthesis: same grid digest, same
 * per-cell fingerprints as kGolden.  Corpus replay adds no sentinel to
 * the fingerprint — identical input records are the whole guarantee —
 * so the frozen goldens stay frozen.
 */
TEST(GoldenSweep, V3CorpusReplayIsBitIdenticalToTheGoldens)
{
    // Record every (workload, hot spot) at the golden budget and pin
    // each stream with the synthesizer's authoritative digest.
    const std::string dir = ::testing::TempDir();
    const std::string manifest = dir + "golden_corpus.json";
    std::vector<trace::CorpusEntry> entries;
    for (const trace::Workload &w : trace::standardWorkloads()) {
        for (unsigned t = 0; t < w.numTraces; ++t) {
            const x86::Program prog = w.buildProgram(t);
            trace::CorpusEntry e;
            e.id = std::string(w.name) + "." + std::to_string(t);
            e.workload = w.name;
            e.traceIdx = t;
            e.records = GOLDEN_BUDGET;
            e.file = "golden_corpus." + e.id + ".rpl3";
            trace::TraceV3Writer::dumpProgram(prog, GOLDEN_BUDGET,
                                              dir + e.file);
            trace::ExecutorTraceSource live(prog, GOLDEN_BUDGET);
            e.digest = trace::wire::streamDigest(live);
            entries.push_back(e);
        }
    }
    ASSERT_TRUE(trace::writeCorpusManifest(manifest, entries).ok());

    trace::clearTraceQuarantine();
    const trace::TraceCorpus corpus = trace::TraceCorpus::load(manifest);
    ASSERT_TRUE(corpus.ok()) << corpus.error().describe();

    sim::SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = GOLDEN_BUDGET;
    opts.warmup = false;
    opts.corpus = &corpus;
    const auto result = runTable3(opts);

    EXPECT_EQ(hex64(result.digest()), GOLDEN_GRID_DIGEST);
    ASSERT_EQ(result.cells.size(), std::size(kGolden));
    for (size_t i = 0; i < result.cells.size(); ++i) {
        EXPECT_EQ(hex64(result.cells[i].fingerprint()),
                  kGolden[i].fingerprint)
            << "corpus sweep cell " << i << " ("
            << result.cells[i].workload << "/" << result.cells[i].config
            << ") diverged from the golden snapshot";
    }

    // Every cell must have replayed a recording; none fell back.
    unsigned traces = 0;
    for (const trace::Workload &w : trace::standardWorkloads())
        traces += w.numTraces;
    EXPECT_EQ(result.corpusHits, 2 * traces);
    EXPECT_EQ(result.corpusMisses, 0u);
}
