/**
 * @file
 * Fault-injection harness tests: every armed corruption injected into a
 * frame must be caught by the online verifier before it commits, roll
 * back through the verify-recovery path, and leave the architectural
 * record stream bit-identical to a fault-free run; damaged trace files
 * must degrade to their valid prefix instead of killing the process.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "fault/faultinjector.hh"
#include "sim/simulator.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"

using namespace replay;
using namespace replay::sim;
using fault::FaultInjector;
using timing::CycleBin;
using trace::TraceError;
using trace::TraceV3Source;
using trace::TraceV3Writer;

namespace {

constexpr uint64_t INSTS = 50000;

RunStats
faultRun(const std::string &workload, Machine machine, double flip_rate,
         double sabotage_rate, uint64_t seed = 1)
{
    SimConfig cfg = SimConfig::make(machine);
    cfg.maxInsts = INSTS;
    cfg.verifyOnline = true;
    cfg.fault.seed = seed;
    cfg.fault.fetchFlipRate = flip_rate;
    cfg.fault.passSabotageRate = sabotage_rate;
    auto src = trace::findWorkload(workload).openTrace(0, INSTS);
    return simulateTrace(cfg, *src, workload);
}

} // namespace

// ---------------------------------------------------------------------
// Online verification, clean runs
// ---------------------------------------------------------------------

TEST(OnlineVerify, CleanRunChecksEveryCommitAndDetectsNothing)
{
    const RunStats stats = faultRun("gzip", Machine::RPO, 0.0, 0.0);
    EXPECT_GT(stats.frameCommits, 0u);
    EXPECT_GT(stats.verifyChecks, 0u);
    EXPECT_EQ(stats.verifyDetections, 0u);
    EXPECT_EQ(stats.corruptFrameCommits, 0u);
    EXPECT_EQ(stats.quarantines, 0u);
    EXPECT_EQ(stats.bins.get(CycleBin::VERIFY), 0u);
    EXPECT_TRUE(stats.archDigestValid);
}

TEST(OnlineVerify, DigestIdenticalAcrossMachines)
{
    // The digest is the architectural state at exactly INSTS retired
    // instructions; the machine only changes timing, never state.
    const uint64_t ic = faultRun("parser", Machine::IC, 0.0, 0.0)
                            .archDigest;
    const uint64_t rp = faultRun("parser", Machine::RP, 0.0, 0.0)
                            .archDigest;
    const uint64_t rpo = faultRun("parser", Machine::RPO, 0.0, 0.0)
                             .archDigest;
    EXPECT_EQ(ic, rp);
    EXPECT_EQ(ic, rpo);
}

TEST(OnlineVerify, ZeroRateMatchesSeedTiming)
{
    // verifyOnline must not perturb timing: same cycles with the
    // verifier on and off.
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = INSTS;
    auto src = trace::findWorkload("gzip").openTrace(0, INSTS);
    const RunStats off = simulateTrace(cfg, *src, "gzip");
    const RunStats on = faultRun("gzip", Machine::RPO, 0.0, 0.0);
    EXPECT_EQ(off.cycles(), on.cycles());
    EXPECT_EQ(off.frameCommits, on.frameCommits);
    EXPECT_EQ(off.uopsExecuted, on.uopsExecuted);
}

// ---------------------------------------------------------------------
// Injected frame corruption: the 100% detection obligation
// ---------------------------------------------------------------------

namespace {

/** One seeded injection run: workload, flip and sabotage rates, seed. */
struct InjectedRun
{
    std::string workload;
    double flipRate;
    double sabotageRate;
    uint64_t seed;
};

/**
 * Both corruption sites composed: flips and sabotage at 2% each, on
 * the first six standard workloads with one seed per workload.
 */
std::vector<InjectedRun>
combinedInjectionRuns()
{
    std::vector<InjectedRun> runs;
    for (unsigned k = 0; k < 6; ++k)
        runs.push_back({trace::standardWorkloads()[k].name, 0.02, 0.02,
                        0x9e3779b9u + k});
    return runs;
}

} // namespace

TEST(FaultInjection, SeededFetchFlipsAllDetectedAndStateClean)
{
    std::vector<InjectedRun> runs;
    for (const uint64_t seed : {1, 7, 23, 99, 1234})
        runs.push_back({"gzip", 0.02, 0.0, seed});
    for (const InjectedRun &run : combinedInjectionRuns())
        runs.push_back(run);

    std::map<std::string, uint64_t> clean_digest;
    uint64_t total_flips = 0, total_detections = 0;
    for (const InjectedRun &run : runs) {
        if (!clean_digest.count(run.workload))
            clean_digest[run.workload] =
                faultRun(run.workload, Machine::RPO, 0.0, 0.0).archDigest;
        const RunStats stats =
            faultRun(run.workload, Machine::RPO, run.flipRate,
                     run.sabotageRate, run.seed);
        const std::string where =
            run.workload + " seed " + std::to_string(run.seed);

        // Obligation: no frame carrying an armed corruption commits.
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << where;
        // Every detection rolled back and quarantined the frame.
        EXPECT_EQ(stats.quarantines, stats.verifyDetections) << where;
        // Recovery is accounted in its own cycle bin.
        if (stats.verifyDetections > 0) {
            EXPECT_GT(stats.bins.get(CycleBin::VERIFY), 0u) << where;
        }
        // Graceful degradation, not divergence: the retired record
        // stream (and so the architectural state at the instruction
        // budget) matches the fault-free run bit for bit.
        EXPECT_EQ(stats.archDigest, clean_digest[run.workload]) << where;

        total_flips += stats.faultsFetchFlip;
        total_detections += stats.verifyDetections;
    }
    // The property is vacuous unless faults were actually injected and
    // actually caught.
    EXPECT_GT(total_flips, 10u);
    EXPECT_GT(total_detections, 0u);
}

TEST(FaultInjection, PassSabotageDetectedBeforeCommit)
{
    const uint64_t clean_digest =
        faultRun("crafty", Machine::RPO, 0.0, 0.0).archDigest;

    uint64_t total_sabotage = 0, total_detections = 0;
    for (const uint64_t seed : {3, 17, 4242}) {
        const RunStats stats =
            faultRun("crafty", Machine::RPO, 0.0, 0.25, seed);
        EXPECT_EQ(stats.corruptFrameCommits, 0u) << "seed " << seed;
        EXPECT_EQ(stats.quarantines, stats.verifyDetections);
        EXPECT_EQ(stats.archDigest, clean_digest) << "seed " << seed;
        total_sabotage += stats.faultsPassSabotage;
        total_detections += stats.verifyDetections;
    }
    EXPECT_GT(total_sabotage, 0u);
    EXPECT_GT(total_detections, 0u);
}

TEST(FaultInjection, QuarantineDegradesToConventionalFetch)
{
    const RunStats stats =
        faultRun("gzip", Machine::RPO, 0.05, 0.0, 11);
    if (stats.verifyDetections == 0)
        GTEST_SKIP() << "no detections at this seed/rate";
    // Quarantined PCs deny frame fetch and candidate construction for
    // a while; the run still completes its full instruction budget.
    EXPECT_GE(stats.x86Retired, INSTS);
    EXPECT_GT(stats.quarantineBlocks + stats.quarantineDrops, 0u);
}

TEST(FaultInjection, DeterministicUnderSeed)
{
    for (const InjectedRun &run : {InjectedRun{"vortex", 0.03, 0.1, 5},
                                   combinedInjectionRuns().front()}) {
        const auto once = [&run] {
            return faultRun(run.workload, Machine::RPO, run.flipRate,
                            run.sabotageRate, run.seed);
        };
        const RunStats a = once();
        const RunStats b = once();
        EXPECT_EQ(a.cycles(), b.cycles()) << run.workload;
        EXPECT_EQ(a.faultsFetchFlip, b.faultsFetchFlip) << run.workload;
        EXPECT_EQ(a.faultsPassSabotage, b.faultsPassSabotage)
            << run.workload;
        EXPECT_EQ(a.verifyDetections, b.verifyDetections) << run.workload;
        EXPECT_EQ(a.quarantines, b.quarantines) << run.workload;
        EXPECT_EQ(a.archDigest, b.archDigest) << run.workload;
        EXPECT_EQ(a.fingerprint(), b.fingerprint()) << run.workload;
    }
}

// ---------------------------------------------------------------------
// Trace-file robustness (injection site (a))
// ---------------------------------------------------------------------

namespace {

std::string
dumpTrace(const std::string &name, uint64_t insts,
          const std::string &tag)
{
    const auto &w = trace::findWorkload(name);
    const std::string path =
        ::testing::TempDir() + name + "." + tag + ".rpl3";
    trace::V3Options opts;
    opts.chunkRecords = 256;
    TraceV3Writer::dumpProgram(w.buildProgram(0), insts, path, opts);
    return path;
}

/** Flip one byte inside chunk @p k's payload; returns that chunk. */
trace::V3Info::Chunk
flipChunkPayload(const std::string &path, size_t k)
{
    const trace::V3Info info = trace::inspectV3(path);
    EXPECT_TRUE(info.ok()) << info.error.describe();
    EXPECT_LT(k, info.chunks.size());
    const trace::V3Info::Chunk chunk = info.chunks.at(k);
    EXPECT_TRUE(FaultInjector::flipByteAt(
        path, chunk.offset + trace::v4::CHUNK_HEADER_BYTES +
                  chunk.payloadBytes / 2));
    return chunk;
}

} // namespace

TEST(TraceRobustness, TruncatedFileYieldsValidPrefix)
{
    // Cutting a v4 file loses its footer, so the container is refused
    // at open: the valid prefix is empty.
    const std::string path = dumpTrace("gzip", 2000, "trunc");
    const uint64_t size = std::filesystem::file_size(path);
    ASSERT_TRUE(FaultInjector::truncateFile(path, size - 7));

    TraceV3Source src(path);
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, TraceError::Kind::TRUNCATED);
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.peek(), nullptr);
    EXPECT_EQ(src.consumed(), 0u);
}

TEST(TraceRobustness, SimulatorCompletesOnTruncatedTrace)
{
    const std::string path = dumpTrace("gzip", 3000, "simtrunc");
    const uint64_t size = std::filesystem::file_size(path);
    ASSERT_TRUE(FaultInjector::truncateFile(path, size / 2));

    TraceV3Source src(path);
    SimConfig cfg = SimConfig::make(Machine::RPO);
    const RunStats stats = simulateTrace(cfg, src, "gzip");
    EXPECT_EQ(src.error().kind, TraceError::Kind::TRUNCATED);
    EXPECT_EQ(stats.x86Retired, 0u);
    EXPECT_EQ(stats.x86Retired, src.consumed());
}

TEST(TraceRobustness, GarbageFileIsEmptyWithBadMagic)
{
    const std::string path = ::testing::TempDir() + "garbage.rpl3";
    {
        std::ofstream out(path, std::ios::binary);
        out << "this is not a trace file at all, not even close";
    }
    TraceV3Source src(path);
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, TraceError::Kind::BAD_MAGIC);
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.peek(), nullptr);
}

TEST(TraceRobustness, MissingFileReportsOpenFailure)
{
    TraceV3Source src(::testing::TempDir() + "does-not-exist.rpl3");
    EXPECT_FALSE(src.ok());
    EXPECT_EQ(src.error().kind, TraceError::Kind::OPEN_FAILED);
    EXPECT_TRUE(src.done());
}

TEST(TraceRobustness, BitFlippedRecordCaughtByChecksum)
{
    const std::string path = dumpTrace("gzip", 1000, "flip");
    const trace::V3Info::Chunk chunk = flipChunkPayload(path, 2);
    ASSERT_GT(chunk.firstRecord, 0u);

    TraceV3Source src(path);
    EXPECT_TRUE(src.ok());      // header and index intact
    uint64_t n = 0;
    while (!src.done()) {
        src.advance();
        ++n;
    }
    EXPECT_EQ(n, chunk.firstRecord);
    EXPECT_EQ(src.error().kind, TraceError::Kind::BAD_CHECKSUM);
    EXPECT_EQ(src.error().chunkIndex, 2);
}

TEST(TraceRobustness, SimulatorCompletesOnCorruptedTrace)
{
    const std::string path = dumpTrace("gzip", 3000, "simflip");
    const trace::V3Info::Chunk chunk = flipChunkPayload(path, 5);

    TraceV3Source src(path);
    SimConfig cfg = SimConfig::make(Machine::RPO);
    const RunStats stats = simulateTrace(cfg, src, "gzip");
    EXPECT_EQ(src.error().kind, TraceError::Kind::BAD_CHECKSUM);
    EXPECT_EQ(stats.x86Retired, chunk.firstRecord);
    EXPECT_EQ(stats.x86Retired, src.consumed());
}

TEST(TraceRobustness, WriterSurfacesOpenFailure)
{
    TraceV3Writer writer(::testing::TempDir() +
                         "no-such-dir/x/y/z.rpl3");
    EXPECT_FALSE(writer.ok());
    EXPECT_EQ(writer.error().kind, TraceError::Kind::OPEN_FAILED);
    writer.write(trace::TraceRecord{});      // must be a safe no-op
    EXPECT_EQ(writer.written(), 0u);
    const TraceError err = writer.close();
    EXPECT_EQ(err.kind, TraceError::Kind::OPEN_FAILED);
}

TEST(TraceRobustness, WriterRoundTripReportsNoError)
{
    const auto &w = trace::findWorkload("bzip2");
    const std::string path = ::testing::TempDir() + "clean.rpl3";
    TraceV3Writer::dumpProgram(w.buildProgram(0), 500, path);
    TraceV3Source src(path);
    EXPECT_TRUE(src.ok());
    EXPECT_EQ(src.totalRecords(), 500u);
    uint64_t n = 0;
    while (!src.done()) {
        src.advance();
        ++n;
    }
    EXPECT_EQ(n, 500u);
    EXPECT_TRUE(src.ok());
}

// ---------------------------------------------------------------------
// Injector internals
// ---------------------------------------------------------------------

TEST(FaultInjector, DisabledConfigNeverFires)
{
    fault::FaultConfig cfg;
    EXPECT_FALSE(cfg.enabled());
    FaultInjector injector(cfg);
    opt::OptimizedFrame body;
    for (int i = 0; i < 1000; ++i) {
        EXPECT_FALSE(injector.maybeFlipOnFetch(body));
        EXPECT_FALSE(injector.maybeSabotagePass(body));
    }
}

TEST(FaultInjector, EmptyBodyHasNoArmedTarget)
{
    fault::FaultConfig cfg;
    cfg.fetchFlipRate = 1.0;
    FaultInjector injector(cfg);
    opt::OptimizedFrame body;       // no uops, no exit bindings
    EXPECT_FALSE(injector.maybeFlipOnFetch(body));
    EXPECT_EQ(injector.stats().get("no_target"), 1u);
}
