/**
 * @file
 * Tests for the deterministic parallel sweep substrate: the job-queue
 * thread pool, order-independent RunStats merging (the bug that blocked
 * parallelizing the figure sweeps), and bit-identity of sweep results
 * across worker counts and against the serial runner.  These run under
 * ThreadSanitizer in tier-1 (label: sweep).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>

#include "fault/faultinjector.hh"
#include "sim/sweep.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "util/logging.hh"
#include "util/threadpool.hh"

using namespace replay;
using namespace replay::sim;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEverySubmittedJob)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPool, WaitThenReuse)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
    for (int i = 0; i < 10; ++i)
        pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 11);
}

TEST(ThreadPool, WaitOnIdlePoolReturns)
{
    ThreadPool pool(3);
    pool.wait();                        // nothing queued: no deadlock
    EXPECT_EQ(pool.numThreads(), 3u);
}

TEST(ParallelFor, FillsIndexedSlotsForAnyWorkerCount)
{
    for (const unsigned jobs : {1u, 2u, 7u}) {
        std::vector<size_t> slots(100, 0);
        parallelFor(jobs, slots.size(),
                    [&slots](size_t i) { slots[i] = i * i; });
        for (size_t i = 0; i < slots.size(); ++i)
            EXPECT_EQ(slots[i], i * i) << "jobs=" << jobs;
    }
}

// ------------------------------------------------- digest merge (bug)

namespace {

RunStats
statsWithDigest(uint64_t digest, uint64_t retired)
{
    RunStats s;
    s.archDigest = digest;
    s.archDigestValid = true;
    s.x86Retired = retired;
    return s;
}

} // anonymous namespace

TEST(RunStatsMerge, DigestIndependentOfMergeOrder)
{
    // Regression: the old fold (digest * FNV_PRIME ^ other) made the
    // merged digest depend on completion order, so a parallel sweep
    // would have produced nondeterministic digests.
    const RunStats a = statsWithDigest(0x1111111111111111ULL, 10);
    const RunStats b = statsWithDigest(0x2222222222222222ULL, 20);
    const RunStats c = statsWithDigest(0x3333333333333333ULL, 30);

    RunStats fwd;
    fwd.merge(a);
    fwd.merge(b);
    fwd.merge(c);

    RunStats rev;
    rev.merge(c);
    rev.merge(b);
    rev.merge(a);

    EXPECT_TRUE(fwd.archDigestValid);
    EXPECT_EQ(fwd.archDigest, rev.archDigest);
    EXPECT_EQ(fwd.x86Retired, rev.x86Retired);

    // Associativity: merging a pre-merged pair matches the linear fold.
    RunStats pair = a;
    pair.merge(b);
    RunStats grouped;
    grouped.merge(c);
    grouped.merge(pair);
    EXPECT_EQ(grouped.archDigest, fwd.archDigest);
}

TEST(RunStatsMerge, InvalidDigestDoesNotContaminate)
{
    RunStats merged;
    merged.merge(RunStats{});           // no digest yet
    EXPECT_FALSE(merged.archDigestValid);
    merged.merge(statsWithDigest(0xabcdULL, 5));
    EXPECT_TRUE(merged.archDigestValid);
    EXPECT_EQ(merged.archDigest, 0xabcdULL);
    merged.merge(RunStats{});           // invalid digest is a no-op
    EXPECT_EQ(merged.archDigest, 0xabcdULL);
}

TEST(RunStatsMerge, FingerprintCoversCounters)
{
    RunStats a = statsWithDigest(1, 100);
    RunStats b = statsWithDigest(1, 100);
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    b.uopsExecuted = 7;
    EXPECT_NE(a.fingerprint(), b.fingerprint());
}

TEST(RunStatsMerge, RobustnessCountersKeepTheFrozenFingerprintLayout)
{
    // allocFailures is mixed behind its sentinel in the slot layout
    // frozen before the resource governor and the stall counter were
    // retired (their slots now zero words), so both values below were
    // captured from the fingerprint of that earlier layout and must
    // not move.
    RunStats clean;
    clean.workload = "w";
    clean.config = "RPO";
    clean.x86Retired = 12345;
    EXPECT_EQ(clean.fingerprint(), 0xac4cc567f030b68cull);

    RunStats faulty = clean;
    faulty.allocFailures = 3;
    EXPECT_EQ(faulty.fingerprint(), 0xf12838b6054df612ull);

    // The counter merges as a sum, independent of arrival order.
    RunStats part;
    part.allocFailures = 2;
    RunStats fwd = clean, rev = clean;
    fwd.merge(part);
    fwd.merge(faulty);
    rev.merge(faulty);
    rev.merge(part);
    EXPECT_EQ(fwd.fingerprint(), rev.fingerprint());
    EXPECT_EQ(fwd.allocFailures, 5u);
}

// --------------------------------------------------------------- sweep

namespace {

std::vector<SweepCell>
smallGrid()
{
    // excel has three hot-spot traces — the multi-trace merge path is
    // exactly where order dependence would show.  RP and RPO both run
    // the frame path, with and without the optimizer.
    std::vector<SweepCell> cells;
    for (const char *name : {"gzip", "excel"}) {
        for (const Machine m : {Machine::IC, Machine::RP, Machine::RPO}) {
            cells.push_back({&trace::findWorkload(name), machineName(m),
                             SimConfig::make(m)});
        }
    }
    return cells;
}

} // anonymous namespace

TEST(Sweep, BitIdenticalAcrossWorkerCounts)
{
    SweepOptions serial;
    serial.jobs = 1;
    serial.instsPerTrace = 8000;
    const auto one = runSweep(smallGrid(), serial);

    SweepOptions parallel4;
    parallel4.jobs = 4;
    parallel4.instsPerTrace = 8000;
    const auto four = runSweep(smallGrid(), parallel4);

    ASSERT_EQ(one.cells.size(), four.cells.size());
    for (size_t i = 0; i < one.cells.size(); ++i)
        EXPECT_EQ(one.cells[i].fingerprint(), four.cells[i].fingerprint())
            << one.cells[i].workload << "/" << one.cells[i].config;
    EXPECT_EQ(one.digest(), four.digest());
}

TEST(Sweep, MatchesSerialRunner)
{
    SweepOptions opts;
    opts.jobs = 4;
    opts.instsPerTrace = 8000;
    const auto sweep = runSweep(smallGrid(), opts);

    size_t i = 0;
    for (const char *name : {"gzip", "excel"}) {
        for (const Machine m : {Machine::IC, Machine::RP, Machine::RPO}) {
            const RunStats serial = runWorkload(
                trace::findWorkload(name), SimConfig::make(m), 8000);
            EXPECT_EQ(sweep.cells[i].fingerprint(), serial.fingerprint())
                << name << "/" << machineName(m);
            ++i;
        }
    }
}

TEST(Sweep, TraceDamagedMidStreamFailsTheTask)
{
    // A corpus whose gzip.0 container has one payload byte of chunk 3
    // flipped: it opens cleanly (header, index and static table are
    // intact) and fails its checksum only when replay reaches the
    // chunk, after 3000 good records.
    const std::string dir = ::testing::TempDir();
    const std::string manifest = dir + "midstream.json";
    const trace::Workload &w = trace::findWorkload("gzip");
    const uint64_t insts = 6000;
    trace::V3Options v3;
    v3.chunkRecords = 1000;
    v3.codec = trace::V3Codec::RAW;
    std::vector<trace::CorpusEntry> entries;
    for (unsigned t = 0; t < w.numTraces; ++t) {
        const x86::Program prog = w.buildProgram(t);
        trace::CorpusEntry e;
        e.id = "gzip." + std::to_string(t);
        e.workload = "gzip";
        e.traceIdx = t;
        e.records = insts;
        e.file = "midstream." + e.id + ".rpl3";
        trace::TraceV3Writer::dumpProgram(prog, insts, dir + e.file, v3);
        trace::ExecutorTraceSource live(prog, insts);
        e.digest = trace::wire::streamDigest(live);
        entries.push_back(e);
    }
    ASSERT_TRUE(trace::writeCorpusManifest(manifest, entries).ok());
    trace::clearTraceQuarantine();
    const trace::TraceCorpus corpus = trace::TraceCorpus::load(manifest);
    ASSERT_TRUE(corpus.ok()) << corpus.error().describe();

    SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = insts;
    opts.warmup = false;
    opts.corpus = &corpus;
    const auto cells =
        gridCells({&w}, {{"RP", SimConfig::make(Machine::RP)}});
    SweepOptions live = opts;
    live.corpus = nullptr;
    const auto clean = runSweep(cells, opts);
    EXPECT_EQ(clean.corpusHits, w.numTraces);
    EXPECT_EQ(clean.digest(), runSweep(cells, live).digest());

    const std::string victim =
        corpus.resolvePath(*corpus.findById("gzip.0"));
    const trace::V3Info info = trace::inspectV3(victim);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_GT(info.chunks.size(), 3u);
    ASSERT_TRUE(fault::FaultInjector::flipByteAt(
        victim, info.chunks[3].offset + trace::v4::CHUNK_HEADER_BYTES +
                    info.chunks[3].payloadBytes / 2));
    try {
        (void)runSweep(cells, opts);
        FAIL() << "a sweep over a trace damaged mid-stream completed";
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        for (const std::string &part :
             {std::string("workload=gzip"), std::string("trace=0"),
              std::string("bad_checksum"), victim,
              std::string("chunk 3")}) {
            EXPECT_NE(what.find(part), std::string::npos)
                << "'" << part << "' missing from: " << what;
        }
    }
}

TEST(Sweep, ReportsThroughput)
{
    SweepOptions opts;
    opts.jobs = 2;
    opts.instsPerTrace = 2000;
    const auto result = runSweep(smallGrid(), opts);
    EXPECT_EQ(result.jobs, 2u);
    // gzip has 1 trace, excel 3; three configs each.
    EXPECT_EQ(result.traceRuns, 3u * (1u + 3u));
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.totalInsts(), 0u);
    EXPECT_GT(result.instsPerSec(), 0.0);
    EXPECT_GT(result.cellsPerSec(), 0.0);
}

TEST(Sweep, RunAllMachinesMatchesRunWorkload)
{
    const auto &w = trace::findWorkload("crafty");
    const auto cells = runAllMachines(w, 8000);
    ASSERT_EQ(cells.size(), 4u);
    size_t i = 0;
    for (const Machine m :
         {Machine::IC, Machine::TC, Machine::RP, Machine::RPO}) {
        const auto serial = runWorkload(w, SimConfig::make(m), 8000);
        EXPECT_EQ(cells[i].fingerprint(), serial.fingerprint());
        ++i;
    }
}

// ------------------------------------------------------- jobs parsing

namespace {

[[noreturn]] void
throwingHandler(const char *, const char *, int, const char *message)
{
    throw std::runtime_error(message);
}

struct EnvGuard
{
    explicit EnvGuard(const char *name) : name_(name)
    {
        if (const char *old = getenv(name))
            saved_ = old;
    }
    ~EnvGuard()
    {
        if (saved_.empty())
            unsetenv(name_);
        else
            setenv(name_, saved_.c_str(), 1);
    }
    const char *name_;
    std::string saved_;
};

} // anonymous namespace

TEST(SweepJobs, EnvOverrideParsedStrictly)
{
    EnvGuard guard("REPLAY_SIM_JOBS");

    setenv("REPLAY_SIM_JOBS", "3", 1);
    EXPECT_EQ(defaultSweepJobs(), 3u);

    DeathHandler prev = setDeathHandler(throwingHandler);
    setenv("REPLAY_SIM_JOBS", "4e2", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setenv("REPLAY_SIM_JOBS", "0", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setenv("REPLAY_SIM_JOBS", "1000000", 1);
    EXPECT_THROW(defaultSweepJobs(), std::runtime_error);
    setDeathHandler(prev);

    unsetenv("REPLAY_SIM_JOBS");
    EXPECT_GE(defaultSweepJobs(), 1u);
}
