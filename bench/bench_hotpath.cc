/**
 * @file
 * Simulation hot-path microbenchmarks, built on google-benchmark.
 *
 * Covers the paths the arena/flat-index overhaul targets, one
 * benchmark per stage of the datapath:
 *
 *   - raw x86 execution (SmallVec step info + page-cached memory),
 *   - end-to-end trace simulation (the replaybench inner loop),
 *   - frame construct -> optimize -> deposit (pooled frames, scratch
 *     optimizer buffers),
 *   - frame-cache lookup and churn (flat open-addressing index),
 *   - trace-file streaming (v4 chunk read + compact decode).
 *
 * These are exploration benches; the regression gate is the
 * deterministic `tools/perfgate` runner, which writes
 * BENCH_hotpath.json and compares it against the checked-in baseline.
 */

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/constructor.hh"
#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "opt/optimizer.hh"
#include "opt/passes.hh"
#include "opt/remapper.hh"
#include "sim/simulator.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "x86/executor.hh"

using namespace replay;

namespace {

/** Pre-recorded trace records to feed engine-side benchmarks. */
const std::vector<trace::TraceRecord> &
recordedTrace()
{
    static const auto records = [] {
        const auto &w = trace::findWorkload("crafty");
        const auto prog = w.buildProgram(0);
        trace::ExecutorTraceSource src(prog, 100000);
        std::vector<trace::TraceRecord> out;
        out.reserve(100000);
        while (!src.done()) {
            out.push_back(*src.peek());
            src.advance();
        }
        return out;
    }();
    return records;
}

/** Real frame candidates, for cache/optimizer benchmarks. */
const std::vector<core::FrameCandidate> &
candidates()
{
    static const auto cands = [] {
        core::FrameConstructor ctor;
        std::vector<core::FrameCandidate> out;
        for (const auto &rec : recordedTrace()) {
            if (auto cand = ctor.observe(rec))
                out.push_back(std::move(*cand));
            if (out.size() >= 256)
                break;
        }
        return out;
    }();
    return cands;
}

core::FramePtr
makeFrame(const core::FrameCandidate &cand, uint64_t id)
{
    auto frame = std::make_shared<core::Frame>();
    frame->id = id;
    frame->startPc = cand.startPc;
    frame->pcs = cand.pcs;
    frame->nextPc = cand.nextPc;
    frame->body = opt::Optimizer::passthrough(cand.uops, cand.blocks);
    return frame;
}

} // namespace

/** Raw x86 interpreter throughput (insts/s). */
static void
BM_ExecutorStep(benchmark::State &state)
{
    const auto &w = trace::findWorkload("gzip");
    const auto prog = w.buildProgram(0);
    x86::Executor exec(prog);
    uint64_t insts = 0;
    for (auto _ : state) {
        const auto &step = exec.step();
        benchmark::DoNotOptimize(step.nextPc);
        ++insts;
    }
    state.counters["insts/s"] =
        benchmark::Counter(double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExecutorStep);

/** End-to-end trace simulation (the replaybench inner loop). */
static void
BM_SimulateTraceRPO(benchmark::State &state)
{
    const auto &w = trace::findWorkload("gzip");
    const auto cfg = sim::SimConfig::make(sim::Machine::RPO);
    const uint64_t budget = uint64_t(state.range(0));
    uint64_t insts = 0;
    for (auto _ : state) {
        auto src = w.openTrace(0, budget);
        const auto stats = sim::simulateTrace(cfg, *src, w.name);
        benchmark::DoNotOptimize(stats.cycles());
        insts += stats.x86Retired;
    }
    state.counters["insts/s"] =
        benchmark::Counter(double(insts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateTraceRPO)->Arg(20000)->Unit(benchmark::kMillisecond);

/** Construct -> optimize -> deposit datapath (frames/s). */
static void
BM_EngineObserveRetired(benchmark::State &state)
{
    const auto &records = recordedTrace();
    uint64_t frames = 0;
    for (auto _ : state) {
        state.PauseTiming();
        core::RePlayEngine engine;
        state.ResumeTiming();
        uint64_t now = 0;
        for (const auto &rec : records)
            engine.observeRetired(rec, ++now);
        frames += engine.stats().counter("candidates").value();
    }
    state.counters["frames/s"] =
        benchmark::Counter(double(frames), benchmark::Counter::kIsRate);
    state.counters["insts/frame-pass"] = double(records.size());
}
BENCHMARK(BM_EngineObserveRetired)->Unit(benchmark::kMillisecond);

/** Hit-path lookup over a populated flat index (lookups/s). */
static void
BM_FrameCacheLookupHit(benchmark::State &state)
{
    const auto &cands = candidates();
    core::FrameCache cache(1u << 20);   // big enough: no evictions
    std::vector<uint32_t> pcs;
    uint64_t id = 0;
    for (const auto &cand : cands) {
        cache.insert(makeFrame(cand, ++id));
        pcs.push_back(cand.startPc);
    }
    size_t i = 0;
    uint64_t lookups = 0;
    for (auto _ : state) {
        const auto frame = cache.lookup(pcs[i++ % pcs.size()]);
        benchmark::DoNotOptimize(frame.get());
        ++lookups;
    }
    state.counters["lookups/s"] =
        benchmark::Counter(double(lookups), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FrameCacheLookupHit);

/** Insert/evict churn at capacity (inserts/s, LRU victim scans). */
static void
BM_FrameCacheChurn(benchmark::State &state)
{
    const auto &cands = candidates();
    // Small capacity so steady state constantly evicts.
    core::FrameCache cache(512);
    uint64_t id = 0;
    size_t i = 0;
    uint64_t inserts = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        cache.insert(makeFrame(cand, ++id));
        ++inserts;
    }
    state.counters["inserts/s"] =
        benchmark::Counter(double(inserts), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FrameCacheChurn);

// ---------------------------------------------------------------------
// Pass-level optimizer microbenches (PR 8 SoA slab IR).  All of them
// run over the same real candidate corpus so uops/s is comparable
// across stages: remap deposit alone, the pristine passthrough
// publish, the full seven-pass pipeline, and remap+DCE (the pass
// every other optimization leans on).
// ---------------------------------------------------------------------

/** Remap deposit alone: architectural uops -> renamed slab planes. */
static void
BM_OptRemapFrame(benchmark::State &state)
{
    const auto &cands = candidates();
    const opt::Remapper remapper;
    opt::OptBuffer buf;
    size_t i = 0;
    uint64_t uops = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        remapper.remap(cand.uops, cand.blocks, false, buf);
        benchmark::DoNotOptimize(buf.size());
        uops += cand.uops.size();
    }
    state.counters["uops/s"] =
        benchmark::Counter(double(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptRemapFrame);

/** Passthrough publish (RP deposit): remap + pristine bulk finalize. */
static void
BM_OptPassthroughFrame(benchmark::State &state)
{
    const auto &cands = candidates();
    opt::OptimizedFrame out;
    size_t i = 0;
    uint64_t uops = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        opt::Optimizer::passthrough(cand.uops, cand.blocks, false, out);
        benchmark::DoNotOptimize(out.size());
        uops += cand.uops.size();
    }
    state.counters["uops/s"] =
        benchmark::Counter(double(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptPassthroughFrame);

/** The full seven-pass pipeline + finalize (RPO deposit). */
static void
BM_OptOptimizeFrame(benchmark::State &state)
{
    const auto &cands = candidates();
    opt::Optimizer optimizer;
    opt::OptStats stats;
    opt::OptimizedFrame out;
    size_t i = 0;
    uint64_t uops = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        optimizer.optimize(cand.uops, cand.blocks, nullptr, stats, out);
        benchmark::DoNotOptimize(out.size());
        uops += cand.uops.size();
    }
    state.counters["uops/s"] =
        benchmark::Counter(double(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptOptimizeFrame);

/** Remap + vectorized DCE (subtract BM_OptRemapFrame for the pass). */
static void
BM_OptPassDce(benchmark::State &state)
{
    const auto &cands = candidates();
    const opt::Remapper remapper;
    opt::OptBuffer buf;
    opt::OptConfig cfg;
    opt::OptStats stats;
    size_t i = 0;
    uint64_t uops = 0;
    for (auto _ : state) {
        const auto &cand = cands[i++ % cands.size()];
        remapper.remap(cand.uops, cand.blocks, false, buf);
        opt::OptContext ctx{buf, cfg, nullptr, stats};
        benchmark::DoNotOptimize(opt::passDce(ctx));
        uops += cand.uops.size();
    }
    state.counters["uops/s"] =
        benchmark::Counter(double(uops), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_OptPassDce);

/** v4 trace-file streaming: chunk read, inflate, compact decode
 *  (records/s). */
static void
BM_TraceFileStream(benchmark::State &state)
{
    // Recorded once per process under a per-process name and removed
    // at exit: the harness re-enters this function several times while
    // estimating iteration counts, each needing the whole stream.
    static const struct StreamFile
    {
        std::string path =
            (std::filesystem::temp_directory_path() /
             ("bench_hotpath_stream." +
              std::to_string(unsigned(::getpid())) + ".rpl3"))
                .string();
        StreamFile()
        {
            const auto &w = trace::findWorkload("gzip");
            trace::TraceV3Writer::dumpProgram(w.buildProgram(0), 50000,
                                              path);
        }
        ~StreamFile() { std::remove(path.c_str()); }
    } file;
    uint64_t records = 0;
    for (auto _ : state) {
        trace::TraceV3Source src(file.path);
        while (!src.done()) {
            benchmark::DoNotOptimize(src.peek());
            src.advance();
        }
        records += src.consumed();
    }
    state.counters["records/s"] =
        benchmark::Counter(double(records), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceFileStream)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
