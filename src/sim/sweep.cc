#include "sim/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <thread>

#include "util/logging.hh"
#include "util/threadpool.hh"

namespace replay::sim {

uint64_t
SweepResult::digest() const
{
    uint64_t h = 14695981039346656037ULL;
    for (const auto &cell : cells) {
        const uint64_t v = cell.fingerprint();
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (i * 8)) & 0xff;
            h *= 1099511628211ULL;
        }
    }
    return h;
}

unsigned
defaultSweepJobs()
{
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read once before the
    // sweep pool spawns; nothing calls setenv.
    if (const char *env = std::getenv("REPLAY_SIM_JOBS")) {
        const uint64_t v = parseCount(env, "REPLAY_SIM_JOBS");
        fatal_if(v > 1024, "REPLAY_SIM_JOBS: %llu workers is absurd",
                 (unsigned long long)v);
        return unsigned(v);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

SweepResult
runSweep(const std::vector<SweepCell> &cells, const SweepOptions &opts)
{
    const uint64_t insts = opts.instsPerTrace ? opts.instsPerTrace
                                              : defaultInstsPerTrace();
    const unsigned jobs = opts.jobs ? opts.jobs : defaultSweepJobs();

    // Expand the grid to (cell, trace) tasks.  Each task simulates one
    // hot-spot trace under one config into its own pre-allocated slot;
    // completion order never matters because nothing is folded until
    // every slot is filled.
    struct Task
    {
        const SweepCell *cell;
        unsigned cellIdx;
        unsigned traceIdx;
    };
    std::vector<Task> tasks;
    for (unsigned c = 0; c < cells.size(); ++c) {
        const auto &cell = cells[c];
        panic_if(!cell.workload, "sweep cell %u has no workload", c);
        for (unsigned t = 0; t < cell.workload->numTraces; ++t)
            tasks.push_back({&cell, c, t});
    }

    // Corpus resolution: a hit replays the recorded container, a miss
    // re-synthesizes.  Either way the record stream is identical (the
    // manifest digest pins it), so the choice only affects speed —
    // except a *corrupt* hit, which throws instead of degrading: at
    // open, or after the run when the container failed mid-stream.
    std::atomic<unsigned> corpus_hits{0}, corpus_misses{0};
    auto openTaskTrace =
        [&](const Task &task) -> std::unique_ptr<trace::TraceSource> {
        if (opts.corpus) {
            const trace::CorpusEntry *entry = opts.corpus->find(
                task.cell->workload->name, task.traceIdx, insts);
            if (entry) {
                trace::TraceError err;
                auto src = opts.corpus->open(*entry, insts, &err);
                if (!src)
                    throw std::runtime_error("corpus trace '" +
                                             entry->id +
                                             "': " + err.describe());
                corpus_hits.fetch_add(1, std::memory_order_relaxed);
                return src;
            }
            corpus_misses.fetch_add(1, std::memory_order_relaxed);
        }
        return task.cell->workload->openTrace(task.traceIdx, insts);
    };

    if (opts.warmup && !tasks.empty()) {
        // Untimed cold-start pass over the first task (see
        // SweepOptions::warmup); its stats are discarded — as are its
        // corpus hit/miss counts, which only describe the timed pass.
        const Task &task = tasks.front();
        auto src = openTaskTrace(task);
        (void)simulateTrace(task.cell->cfg, *src,
                            task.cell->workload->name);
        corpus_hits.store(0, std::memory_order_relaxed);
        corpus_misses.store(0, std::memory_order_relaxed);
    }

    const auto start = std::chrono::steady_clock::now();

    std::vector<RunStats> slots(tasks.size());
    parallelFor(jobs, tasks.size(), [&](size_t i) {
        const Task &task = tasks[i];
        // A task failure of any kind (trace error, logic bug) is
        // re-raised with the cell's identity attached; parallelFor
        // captures the first one, cancels the remaining tasks, and
        // rethrows from the join, so a sweep aborts with a diagnostic
        // instead of std::terminate.
        const SimConfig &cfg = task.cell->cfg;
        try {
            auto src = openTaskTrace(task);
            slots[i] = simulateTrace(cfg, *src,
                                     task.cell->workload->name);
            // A damaged trace ends early with done() like a whole one;
            // its figures cover only the valid prefix.
            if (!src->error().ok())
                throw std::runtime_error("trace failed mid-stream: " +
                                         src->error().describe());
        } catch (const std::exception &e) {
            throw std::runtime_error(
                "sweep task [workload=" + task.cell->workload->name +
                " config=" +
                (task.cell->label.empty() ? cfg.name()
                                          : task.cell->label) +
                " trace=" + std::to_string(task.traceIdx) + "]: " +
                e.what());
        }
    });

    SweepResult result;
    result.jobs = jobs;
    result.traceRuns = unsigned(tasks.size());
    result.corpusHits = corpus_hits.load(std::memory_order_relaxed);
    result.corpusMisses = corpus_misses.load(std::memory_order_relaxed);
    result.cells.resize(cells.size());

    // Canonical merge: slot order is (cell 0 trace 0, cell 0 trace 1,
    // ..., cell 1 trace 0, ...) — the same fold the serial runWorkload
    // loop performs, independent of which worker finished when.
    for (unsigned c = 0; c < cells.size(); ++c) {
        RunStats &merged = result.cells[c];
        merged.workload = cells[c].workload->name;
        merged.config = cells[c].label.empty() ? cells[c].cfg.name()
                                               : cells[c].label;
    }
    for (size_t i = 0; i < tasks.size(); ++i)
        result.cells[tasks[i].cellIdx].merge(slots[i]);

    result.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return result;
}

std::vector<SweepCell>
gridCells(const std::vector<const trace::Workload *> &workloads,
          const std::vector<std::pair<std::string, SimConfig>> &configs)
{
    std::vector<SweepCell> cells;
    cells.reserve(workloads.size() * configs.size());
    for (const auto *w : workloads)
        for (const auto &[label, cfg] : configs)
            cells.push_back({w, label, cfg});
    return cells;
}

std::vector<const trace::Workload *>
standardWorkloadRows()
{
    std::vector<const trace::Workload *> rows;
    for (const auto &w : trace::standardWorkloads())
        rows.push_back(&w);
    return rows;
}

std::vector<std::pair<std::string, SimConfig>>
allMachineColumns()
{
    std::vector<std::pair<std::string, SimConfig>> cols;
    for (const Machine m :
         {Machine::IC, Machine::TC, Machine::RP, Machine::RPO}) {
        cols.emplace_back(machineName(m), SimConfig::make(m));
    }
    return cols;
}

} // namespace replay::sim
