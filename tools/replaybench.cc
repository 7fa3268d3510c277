/**
 * @file
 * replaybench — one deterministic driver for the paper's workload
 * sweeps.
 *
 * Selects figures/tables of the experiment registry (sim/experiments.hh)
 * by name, fans each (workload x config x trace) grid across a thread
 * pool, and prints either the paper-style table of each figure or
 * machine-readable JSON.  Results are bit-identical for any --jobs
 * value: every cell runs its own Simulator on its own seeded Rng, and
 * per-trace stats merge into indexed slots in canonical order, never
 * completion order.  The per-figure digest line makes that checkable
 * from the shell:
 *
 *   ./replaybench --jobs 1 fig6 | grep digest
 *   ./replaybench --jobs 8 fig6 | grep digest     # identical
 *
 * Usage:
 *   replaybench [--jobs N] [--insts N] [--json] [--list]
 *               [--static-check]
 *               [--corpus corpus.json] [target ...]
 *
 * --corpus replays recorded trace containers (see tools/tracec) where
 * the manifest covers a (workload, hot-spot) pair at the requested
 * budget, falling back to live synthesis on misses; digests are
 * identical either way, and each sweep reports its hit/miss counts.
 *
 * Targets: the registry's experiments, listed by --list (default: all).
 *
 * --static-check attaches the static verifier (src/verify/static) to
 * every optimizer invocation in counting mode and appends its
 * violation totals to the output.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "sim/experiments.hh"
#include "util/logging.hh"
#include "verify/static/hook.hh"

using namespace replay;

namespace {

/** Print @p target's paper table, then its throughput and digest. */
void
emitText(const sim::Experiment &target, const sim::Grid &ran)
{
    const sim::SweepResult &result = ran.result;
    std::printf("== %s: %s ==\n", target.name, target.description);
    target.render(ran);
    std::printf("%s: %u cells (%u trace runs) in %.2fs with %u "
                "worker(s) — %.2f cells/s, %.2fM x86 insts/s\n",
                target.name, unsigned(result.cells.size()),
                result.traceRuns, result.wallSeconds, result.jobs,
                result.cellsPerSec(), result.instsPerSec() / 1e6);
    if (result.corpusHits || result.corpusMisses) {
        std::printf("%s: corpus %u hit(s), %u miss(es)\n", target.name,
                    result.corpusHits, result.corpusMisses);
    }
    std::printf("%s: digest %016llx\n\n", target.name,
                (unsigned long long)result.digest());
}

/** Minimal JSON string escaping (labels are plain ASCII). */
std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

void
emitJson(const sim::Experiment &target, const sim::SweepResult &result,
         bool first)
{
    std::printf("%s    {\n      \"name\": %s,\n", first ? "" : ",\n",
                jsonStr(target.name).c_str());
    std::printf("      \"wall_seconds\": %.6f,\n", result.wallSeconds);
    std::printf("      \"jobs\": %u,\n", result.jobs);
    std::printf("      \"trace_runs\": %u,\n", result.traceRuns);
    std::printf("      \"corpus_hits\": %u,\n", result.corpusHits);
    std::printf("      \"corpus_misses\": %u,\n", result.corpusMisses);
    std::printf("      \"cells_per_sec\": %.3f,\n", result.cellsPerSec());
    std::printf("      \"insts_per_sec\": %.0f,\n", result.instsPerSec());
    std::printf("      \"digest\": \"%016llx\",\n",
                (unsigned long long)result.digest());
    std::printf("      \"cells\": [\n");
    for (size_t i = 0; i < result.cells.size(); ++i) {
        const auto &cell = result.cells[i];
        std::printf("        {\"workload\": %s, \"config\": %s, "
                    "\"x86_retired\": %llu, \"cycles\": %llu, "
                    "\"ipc\": %.6f, \"uop_reduction\": %.6f, "
                    "\"load_reduction\": %.6f, \"coverage\": %.6f, "
                    "\"frame_commits\": %llu, \"frame_aborts\": %llu, "
                    "\"fingerprint\": \"%016llx\"}%s\n",
                    jsonStr(cell.workload).c_str(),
                    jsonStr(cell.config).c_str(),
                    (unsigned long long)cell.x86Retired,
                    (unsigned long long)cell.cycles(), cell.ipc(),
                    cell.uopReduction(), cell.loadReduction(),
                    cell.coverage(),
                    (unsigned long long)cell.frameCommits,
                    (unsigned long long)cell.frameAborts,
                    (unsigned long long)cell.fingerprint(),
                    i + 1 < result.cells.size() ? "," : "");
    }
    std::printf("      ]\n    }");
}

/** The static verifier's counters, as one JSON object body. */
void
emitStaticJson()
{
    const auto &stats = vstatic::staticCheckStats();
    std::printf("  \"static_check\": {\n");
    std::printf("    \"frames_checked\": %llu,\n",
                (unsigned long long)stats.framesChecked.load());
    std::printf("    \"passes_checked\": %llu,\n",
                (unsigned long long)stats.passesChecked.load());
    std::printf("    \"lint_violations\": %llu,\n",
                (unsigned long long)stats.lintViolations.load());
    std::printf("    \"pass_violations\": %llu,\n",
                (unsigned long long)stats.passViolations.load());
    std::printf("    \"by_pass\": {");
    for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p) {
        std::printf("%s\"%s\": %llu", p ? ", " : "",
                    opt::passIdName(static_cast<opt::PassId>(p)),
                    (unsigned long long)stats.byPass[p].load());
    }
    std::printf("}\n  },\n");
}

void
emitStaticText()
{
    const auto &stats = vstatic::staticCheckStats();
    std::printf("static check: %llu frames, %llu pass invocations, "
                "%llu violations (",
                (unsigned long long)stats.framesChecked.load(),
                (unsigned long long)stats.passesChecked.load(),
                (unsigned long long)stats.violations());
    for (unsigned p = 0; p < opt::NUM_PASS_IDS; ++p) {
        std::printf("%s%s=%llu", p ? " " : "",
                    opt::passIdName(static_cast<opt::PassId>(p)),
                    (unsigned long long)stats.byPass[p].load());
    }
    std::printf(")\n");
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--jobs N] [--insts N] [--json] [--list] "
                 "[--static-check] "
                 "[--corpus corpus.json] [target ...]\n"
                 "targets:",
                 argv0);
    for (const auto &e : sim::experiments())
        std::fprintf(stderr, " %s", e.name);
    std::fprintf(stderr, " (default: all)\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    sim::SweepOptions opts;
    bool json = false;
    bool list = false;
    bool static_check = false;
    std::string corpus_path;
    trace::TraceCorpus corpus;
    std::vector<std::string> names;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--jobs" || arg == "-j") {
            if (++i >= argc)
                return usage(argv[0]);
            opts.jobs = unsigned(sim::parseCount(argv[i], "--jobs"));
        } else if (arg == "--insts") {
            if (++i >= argc)
                return usage(argv[0]);
            opts.instsPerTrace = sim::parseCount(argv[i], "--insts");
        } else if (arg == "--corpus") {
            if (++i >= argc)
                return usage(argv[0]);
            corpus_path = argv[i];
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--static-check") {
            static_check = true;
        } else if (arg == "--list") {
            list = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            names.push_back(arg);
        }
    }

    if (list) {
        for (const auto &e : sim::experiments())
            std::printf("%-10s %s\n", e.name, e.description);
        return 0;
    }
    if (names.empty() || (names.size() == 1 && names[0] == "all")) {
        names.clear();
        for (const auto &e : sim::experiments())
            names.push_back(e.name);
    }

    std::vector<const sim::Experiment *> selected;
    for (const auto &name : names) {
        const sim::Experiment *found = sim::findExperiment(name);
        if (!found) {
            std::fprintf(stderr, "unknown target '%s'\n", name.c_str());
            return usage(argv[0]);
        }
        selected.push_back(found);
    }

    const uint64_t insts = opts.instsPerTrace ? opts.instsPerTrace
                                              : sim::defaultInstsPerTrace();
    const unsigned jobs = opts.jobs ? opts.jobs : sim::defaultSweepJobs();

    if (!corpus_path.empty()) {
        // An explicitly requested corpus that fails to load is an
        // error, not a silent fall-back to synthesis.
        corpus = trace::TraceCorpus::load(corpus_path);
        if (!corpus.ok()) {
            std::fprintf(stderr, "replaybench: %s\n",
                         corpus.error().describe().c_str());
            return 1;
        }
        opts.corpus = &corpus;
    }

    if (static_check) {
        // Counting mode; keep the Simulator's debug-build auto-enable
        // from re-arming panic mode behind our back.
        setenv("REPLAY_STATIC_CHECK", "0", 1);
        vstatic::installStaticChecker(vstatic::Action::COUNT);
    }

    if (json) {
        std::printf("{\n  \"insts_per_trace\": %llu,\n  \"jobs\": %u,\n"
                    "  \"targets\": [\n",
                    (unsigned long long)insts, jobs);
    } else {
        std::printf("replaybench: %llu x86 insts per hot-spot trace, "
                    "%u worker(s)\n\n",
                    (unsigned long long)insts, jobs);
    }

    double wall_total = 0;
    bool first = true;
    for (const sim::Experiment *target : selected) {
        sim::Grid grid = target->grid();
        try {
            grid.run(opts);
        } catch (const std::exception &e) {
            // A failed task (e.g. a corpus trace damaged mid-stream)
            // fails the run instead of printing a partial figure.
            std::fflush(stdout);
            std::fprintf(stderr, "replaybench: %s\n", e.what());
            return 1;
        }
        wall_total += grid.result.wallSeconds;
        if (json)
            emitJson(*target, grid.result, first);
        else
            emitText(*target, grid);
        first = false;
    }

    if (json) {
        std::printf("\n  ],\n");
        if (static_check)
            emitStaticJson();
        std::printf("  \"wall_seconds_total\": %.6f\n}\n", wall_total);
    } else {
        if (static_check)
            emitStaticText();
        std::printf("total sweep wall time: %.2fs\n", wall_total);
    }
    return 0;
}
