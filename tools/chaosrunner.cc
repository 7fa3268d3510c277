/**
 * @file
 * chaosrunner — chaos/soak campaign driver for the robustness harness.
 *
 * Composes every failure source the stack can inject — frame-cache bit
 * flips, optimizer sabotage, transient and persistent trace I/O
 * faults, and task stalls against the sweep watchdog — into an N-seed
 * campaign and asserts the engineered guarantees actually hold:
 *
 *   phase A (engine soak)  every seeded run completes (no crash, no
 *                          uncaught exception), no corrupt frame
 *                          escapes the online verifier, and a
 *                          repeated seed reproduces its fingerprint
 *                          bit-for-bit;
 *   phase B (I/O soak)     transient read faults are absorbed by
 *                          bounded retries, corruption / truncation /
 *                          persistent errors surface as exactly the
 *                          right recoverable TraceError kind, and a
 *                          persistently bad trace is quarantined for
 *                          the rest of the session;
 *   phase C (watchdog)     an injected stall trips the per-task soft
 *                          deadline, and the sweep aborts with one
 *                          diagnostic exception naming the cell
 *                          instead of std::terminate;
 *   phase D (determinism)  with injection disabled, sweep digests are
 *                          bit-identical across --jobs values.
 *
 * Exit status is 0 iff every phase passed; run it under ASan/UBSan to
 * extend "no crash" to "no leak, no UB" (scripts/tier1.sh does).
 *
 * Usage:
 *   chaosrunner [--seeds N] [--insts N] [--jobs N]
 */

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/faultinjector.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/cancellation.hh"
#include "util/rng.hh"
#include "util/sync.hh"

using namespace replay;
using sim::Machine;
using sim::SimConfig;

namespace {

struct Options
{
    unsigned seeds = 24;
    uint64_t insts = 20000;
    unsigned jobs = 4;
};

unsigned failures = 0;

void
check(bool ok, const char *phase, const std::string &what)
{
    if (ok)
        return;
    ++failures;
    std::fprintf(stderr, "chaosrunner FAIL [%s]: %s\n", phase,
                 what.c_str());
}

/** Fault-injected RPO config for one campaign seed. */
SimConfig
chaosConfig(const Options &opt, unsigned seed)
{
    SimConfig cfg = SimConfig::make(Machine::RPO);
    cfg.maxInsts = opt.insts;
    cfg.verifyOnline = true;
    cfg.fault.seed = 0x9e3779b9u + seed;
    cfg.fault.fetchFlipRate = 0.02;
    cfg.fault.passSabotageRate = 0.02;
    return cfg;
}

uint64_t
runOne(const SimConfig &cfg, const trace::Workload &workload,
       unsigned trace_idx)
{
    auto src = workload.openTrace(trace_idx, cfg.maxInsts);
    sim::Simulator simulator(cfg);
    return simulator.run(*src).fingerprint();
}

void
phaseEngineSoak(const Options &opt)
{
    const auto &workloads = trace::standardWorkloads();
    unsigned completed = 0;
    for (unsigned seed = 0; seed < opt.seeds; ++seed) {
        const SimConfig cfg = chaosConfig(opt, seed);
        const auto &workload = workloads[seed % workloads.size()];
        try {
            auto src = workload.openTrace(0, cfg.maxInsts);
            sim::Simulator simulator(cfg);
            const sim::RunStats stats = simulator.run(*src);
            ++completed;
            check(stats.corruptFrameCommits == 0, "engine",
                  "seed " + std::to_string(seed) + " (" + workload.name +
                      "): " + std::to_string(stats.corruptFrameCommits) +
                      " corrupt frame(s) escaped the online verifier");
        } catch (const std::exception &e) {
            check(false, "engine",
                  "seed " + std::to_string(seed) +
                      " raised: " + e.what());
        }
    }
    check(completed == opt.seeds, "engine",
          std::to_string(opt.seeds - completed) + " run(s) died");

    // Reproducibility under injection: same seed, same everything.
    const SimConfig cfg = chaosConfig(opt, 0);
    const uint64_t a = runOne(cfg, workloads[0], 0);
    const uint64_t b = runOne(cfg, workloads[0], 0);
    check(a == b, "engine",
          "seed 0 fingerprint not reproducible: " + std::to_string(a) +
              " vs " + std::to_string(b));
    std::printf("phase A (engine soak): %u/%u injected runs "
                "completed\n",
                completed, opt.seeds);
}

/** Drain a trace source; returns records delivered. */
uint64_t
drain(trace::TraceSource &src)
{
    uint64_t n = 0;
    while (!src.done()) {
        src.advance();
        ++n;
    }
    return n;
}

void
phaseIoSoak(const Options &opt)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("chaosrunner-" + std::to_string(unsigned(::getpid())));
    fs::create_directories(dir);
    const std::string pristine = (dir / "pristine.rpl3").string();

    // Small chunks, so every drain makes several chunk loads for the
    // injector to fail and a flip can land in any of them.
    const auto &workload = trace::standardWorkloads().front();
    const uint64_t records = 2000;
    trace::V3Options v4opts;
    v4opts.chunkRecords = 200;
    trace::TraceV3Writer::dumpProgram(workload.buildProgram(0), records,
                                      pristine, v4opts);
    const trace::V3Info layout = trace::inspectV3(pristine);
    check(layout.ok() && layout.chunks.size() > 1, "io",
          "pristine trace has no multi-chunk layout");
    trace::clearTraceQuarantine();

    unsigned transient_ok = 0, detected = 0;
    for (unsigned seed = 0; seed < opt.seeds && layout.ok(); ++seed) {
        const std::string path =
            (dir / ("seed" + std::to_string(seed) + ".rpl3")).string();
        std::error_code ec;
        fs::copy_file(pristine, path,
                      fs::copy_options::overwrite_existing, ec);
        if (ec) {
            check(false, "io", "cannot stage " + path);
            continue;
        }
        switch (seed % 3) {
          case 0: {
            // Transient faults: seeded injector fires on ~10% of
            // chunk-load attempts; bounded retries must deliver the
            // whole stream with no error (aborting needs 4 hits in a
            // row — odds well under 1% across the campaign).
            trace::TraceV3Source src(path);
            Rng rng(1000 + seed);
            src.setIoFaultInjector([&rng] { return rng.chance(0.1); });
            const uint64_t got = drain(src);
            check(src.ok() && got == records, "io",
                  "seed " + std::to_string(seed) +
                      ": transient faults not absorbed (got " +
                      std::to_string(got) + "/" +
                      std::to_string(records) + ", error " +
                      trace::traceErrorKindName(src.error().kind) + ")");
            if (src.ok())
                ++transient_ok;
            break;
          }
          case 1: {
            // A flipped byte inside chunk k's payload → BAD_CHECKSUM
            // after exactly the chunks before it.
            Rng rng(2000 + seed);
            const auto &chunk =
                layout.chunks[rng.below(layout.chunks.size())];
            fault::FaultInjector::flipByteAt(
                path, chunk.offset + trace::v4::CHUNK_HEADER_BYTES +
                          rng.below(chunk.payloadBytes));
            trace::TraceV3Source src(path);
            const uint64_t got = drain(src);
            const auto kind = src.error().kind;
            check(kind == trace::TraceError::Kind::BAD_CHECKSUM, "io",
                  "seed " + std::to_string(seed) +
                      ": corruption surfaced as " +
                      trace::traceErrorKindName(kind));
            check(got == chunk.firstRecord, "io",
                  "seed " + std::to_string(seed) + ": delivered " +
                      std::to_string(got) + " records, expected the " +
                      std::to_string(chunk.firstRecord) +
                      "-record prefix");
            if (kind == trace::TraceError::Kind::BAD_CHECKSUM)
                ++detected;
            break;
          }
          case 2: {
            // Truncation (honest end of file) must read TRUNCATED —
            // never the retriable READ_ERROR.
            fault::FaultInjector::truncateFile(
                path, fs::file_size(path) / 2 + 7);
            trace::TraceV3Source src(path);
            drain(src);
            check(src.error().kind ==
                      trace::TraceError::Kind::TRUNCATED,
                  "io",
                  "seed " + std::to_string(seed) +
                      ": truncation surfaced as " +
                      trace::traceErrorKindName(src.error().kind));
            if (src.error().kind == trace::TraceError::Kind::TRUNCATED)
                ++detected;
            break;
          }
        }
        std::remove(path.c_str());
    }

    // Persistent failure: the injector never relents, so retries
    // exhaust, the source fails with READ_ERROR, and the path is
    // session-quarantined; the next open fails fast.
    {
        const std::string path = (dir / "persistent.rpl3").string();
        std::error_code ec;
        fs::copy_file(pristine, path,
                      fs::copy_options::overwrite_existing, ec);
        trace::TraceV3Source src(path);
        src.setIoFaultInjector([] { return true; });
        drain(src);
        check(src.error().kind == trace::TraceError::Kind::READ_ERROR,
              "io", std::string("persistent fault surfaced as ") +
                        trace::traceErrorKindName(src.error().kind));
        trace::TraceV3Source again(path);
        check(again.error().kind ==
                  trace::TraceError::Kind::QUARANTINED,
              "io", "persistently bad trace was not quarantined");
        trace::clearTraceQuarantine();
        std::remove(path.c_str());
    }

    std::remove(pristine.c_str());
    std::error_code ec;
    fs::remove_all(dir, ec);
    std::printf("phase B (I/O soak): %u transient recoveries, %u "
                "corruptions/truncations detected\n",
                transient_ok, detected);
}

void
phaseWatchdog(const Options &opt)
{
    // Every checkpoint stalls 10ms against a 1ms soft deadline: the
    // first checkpoint past 1024 records must throw, and runSweep must
    // surface it as one diagnostic exception naming the cell.
    sim::SweepCell cell;
    cell.workload = &trace::standardWorkloads().front();
    cell.cfg = SimConfig::make(Machine::RPO);
    cell.cfg.fault.seed = 7;
    cell.cfg.fault.stallRate = 1.0;
    cell.cfg.fault.stallMillis = 10;

    sim::SweepOptions sweep;
    sweep.jobs = opt.jobs;
    sweep.instsPerTrace = 4096;
    sweep.warmup = false;
    sweep.taskDeadlineMillis = 1;

    bool threw = false;
    std::string message;
    try {
        (void)sim::runSweep({cell}, sweep);
    } catch (const CancelledError &e) {
        threw = true;
        message = e.what();
    } catch (const std::exception &e) {
        message = e.what();
    }
    check(threw, "watchdog",
          "stalled sweep did not raise CancelledError (got: " + message +
              ")");
    check(message.find("sweep task [workload=") != std::string::npos,
          "watchdog", "missing cell diagnostic in: " + message);
    check(message.find("deadline") != std::string::npos, "watchdog",
          "missing deadline cause in: " + message);

    // Same cells without the stall or deadline: completes normally.
    cell.cfg.fault.stallRate = 0.0;
    sweep.taskDeadlineMillis = 0;
    try {
        const auto result = sim::runSweep({cell}, sweep);
        check(result.cells.size() == 1 &&
                  result.cells[0].x86Retired > 0,
              "watchdog", "clean sweep produced no work");
    } catch (const std::exception &e) {
        check(false, "watchdog",
              std::string("clean sweep raised: ") + e.what());
    }
    std::printf("phase C (watchdog): stall -> deadline -> clean "
                "diagnostic abort\n");
}

void
phaseDeterminism(const Options &opt)
{
    // Injection off: the digest must not depend on --jobs (per-run
    // engines, indexed slots, canonical merges).
    std::vector<std::pair<std::string, SimConfig>> cols = {
        {"RP", SimConfig::make(Machine::RP)},
        {"RPO", SimConfig::make(Machine::RPO)},
    };
    std::vector<const trace::Workload *> rows = {
        &trace::standardWorkloads()[0],
        &trace::standardWorkloads()[1],
    };
    sim::SweepOptions serial, parallel;
    serial.jobs = 1;
    parallel.jobs = opt.jobs > 1 ? opt.jobs : 4;
    serial.instsPerTrace = parallel.instsPerTrace = opt.insts;
    serial.warmup = parallel.warmup = false;

    const auto cells = sim::gridCells(rows, cols);
    const uint64_t d1 = sim::runSweep(cells, serial).digest();
    const uint64_t dn = sim::runSweep(cells, parallel).digest();
    char b1[32], bn[32];
    std::snprintf(b1, sizeof(b1), "%016llx", (unsigned long long)d1);
    std::snprintf(bn, sizeof(bn), "%016llx", (unsigned long long)dn);
    check(d1 == dn, "determinism",
          std::string("digest differs across jobs: ") + b1 + " vs " +
              bn);
    std::printf("phase D (determinism): digest %s identical for "
                "--jobs 1 and --jobs %u\n",
                b1, parallel.jobs);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--seeds N] [--insts N] [--jobs N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--seeds") {
            if (++i >= argc)
                return usage(argv[0]);
            opt.seeds = unsigned(sim::parseCount(argv[i], "--seeds"));
        } else if (arg == "--insts") {
            if (++i >= argc)
                return usage(argv[0]);
            opt.insts = sim::parseCount(argv[i], "--insts");
        } else if (arg == "--jobs" || arg == "-j") {
            if (++i >= argc)
                return usage(argv[0]);
            opt.jobs = unsigned(sim::parseCount(argv[i], "--jobs"));
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            return usage(argv[0]);
        }
    }

    std::printf("chaosrunner: %u seeds, %llu insts/run, %u jobs, "
                "lock-hierarchy checker %s\n",
                opt.seeds, (unsigned long long)opt.insts, opt.jobs,
                sync::hierarchyChecked() ? "armed" : "off");

    phaseEngineSoak(opt);
    phaseIoSoak(opt);
    phaseWatchdog(opt);
    phaseDeterminism(opt);

    if (failures) {
        std::fprintf(stderr, "chaosrunner: %u failure(s)\n", failures);
        return 1;
    }
    std::printf("chaosrunner: all phases passed\n");
    return 0;
}
