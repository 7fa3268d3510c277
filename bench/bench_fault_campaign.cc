/**
 * @file
 * Fault-injection campaign: sweep seeded frame-corruption rates across
 * all 14 workloads and demand the three harness guarantees hold
 * everywhere —
 *
 *   1. detection:   every armed corruption that reaches a committing
 *                   frame is rejected by the online verifier first
 *                   (zero escapes),
 *   2. state:       the architectural digest at the instruction budget
 *                   is bit-identical to the fault-free run,
 *   3. degradation: performance degrades gracefully — faulty rePLay+Opt
 *                   never drops below the conventional ICache baseline.
 *
 * A second phase damages persisted trace files (truncation, a byte flip
 * inside one chunk's payload) and checks each surfaces as its exact
 * TraceError with its exact valid prefix, and that the simulator
 * completes on that prefix.  Exits non-zero on any violation.
 */

#include "common.hh"

#include <unistd.h>

#include <filesystem>

#include "fault/faultinjector.hh"
#include "trace/tracev3.hh"

using namespace replay;
using fault::FaultInjector;
using sim::Machine;
using sim::RunStats;
using sim::SimConfig;
using trace::TraceError;
using trace::TraceV3Source;
using trace::TraceV3Writer;

namespace {

unsigned failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::printf("FAIL: %s\n", what.c_str());
    }
}

/** A config with the online verifier armed at the given fault rate. */
SimConfig
verifiedConfig(Machine machine, double rate, uint64_t insts)
{
    SimConfig cfg = SimConfig::make(machine);
    cfg.maxInsts = insts;
    cfg.verifyOnline = true;
    cfg.fault.seed = 0x5eed + unsigned(rate * 10000);
    cfg.fault.fetchFlipRate = rate;
    cfg.fault.passSabotageRate = rate;
    return cfg;
}

} // namespace

int
main()
{
    bench::banner("Fault-injection campaign",
                  "robustness harness: 100% pre-commit detection, "
                  "bit-identical state, graceful degradation");

    const uint64_t insts = sim::defaultInstsPerTrace();
    const double rates[] = {0.005, 0.02, 0.05};

    // One parallel sweep covers the whole campaign: per workload, the
    // IC digest reference, the clean RPO run, and the faulty RPO runs.
    sim::Grid grid;
    grid.rows = sim::standardWorkloadRows();
    grid.cols = {{"IC", verifiedConfig(Machine::IC, 0.0, insts)},
                 {"clean", verifiedConfig(Machine::RPO, 0.0, insts)}};
    for (const double rate : rates) {
        char label[16];
        std::snprintf(label, sizeof(label), "%.3f", rate);
        grid.cols.emplace_back(label,
                               verifiedConfig(Machine::RPO, rate, insts));
    }
    sim::SweepOptions opts;
    opts.instsPerTrace = insts;
    grid.run(opts);

    TextTable table;
    table.header({"app", "rate", "injected", "detected", "escaped",
                  "quarantines", "state", "IPC", "vs IC"});

    for (size_t row = 0; row < grid.rows.size(); ++row) {
        const auto &w = *grid.rows[row];
        const RunStats &ic = grid.at(row, 0);
        const RunStats &clean = grid.at(row, 1);
        check(clean.archDigest == ic.archDigest,
              w.name + ": clean RPO digest != IC digest");
        check(clean.verifyDetections == 0,
              w.name + ": clean run had verifier detections");
        table.row({w.name, "0", "0",
                   std::to_string(clean.verifyChecks) + " checks", "0",
                   "0", "ok", TextTable::fixed(clean.ipc(), 2),
                   TextTable::percent(clean.ipc() / ic.ipc() - 1.0, 0)});

        for (size_t i = 0; i < std::size(rates); ++i) {
            const RunStats &r = grid.at(row, 2 + i);
            const uint64_t injected =
                r.faultsFetchFlip + r.faultsPassSabotage;
            const bool state_ok = r.archDigest == clean.archDigest;

            check(r.corruptFrameCommits == 0,
                  w.name + ": corrupted frame escaped the verifier");
            check(state_ok, w.name + ": architectural state diverged");
            check(r.quarantines == r.verifyDetections,
                  w.name + ": detection without quarantine");
            check(r.ipc() >= ic.ipc(),
                  w.name + ": degraded below the ICache baseline");

            char rate_s[16];
            std::snprintf(rate_s, sizeof(rate_s), "%.3f", rates[i]);
            table.row({w.name, rate_s, std::to_string(injected),
                       std::to_string(r.verifyDetections),
                       std::to_string(r.corruptFrameCommits),
                       std::to_string(r.quarantines),
                       state_ok ? "ok" : "DIVERGED",
                       TextTable::fixed(r.ipc(), 2),
                       TextTable::percent(r.ipc() / ic.ipc() - 1.0, 0)});
        }
        table.separator();
    }
    std::printf("%s\n", table.render().c_str());
    bench::throughputFooter(grid.result);

    // ---- phase 2: damaged trace files --------------------------------
    std::printf("Trace-container robustness:\n");
    const uint64_t dump_insts = std::min<uint64_t>(insts, 20000);
    trace::V3Options v4opts;
    v4opts.chunkRecords = 1000;
    for (const char *name : {"gzip", "eon", "excel"}) {
        const auto &w = trace::findWorkload(name);
        const std::string path =
            (std::filesystem::temp_directory_path() /
             (std::string(name) + ".campaign." +
              std::to_string(unsigned(::getpid())) + ".rpl3"))
                .string();
        TraceV3Writer::dumpProgram(w.buildProgram(0), dump_insts, path,
                                   v4opts);
        const trace::V3Info layout = trace::inspectV3(path);
        check(layout.ok() && !layout.chunks.empty(),
              std::string(name) + ": no chunk layout");
        if (!layout.ok() || layout.chunks.empty())
            continue;

        // Truncation cuts the footer: the container is refused at open
        // as TRUNCATED (never a retriable READ_ERROR), and the
        // simulator completes on the empty prefix.
        FaultInjector::truncateFile(path, layout.fileBytes / 2);
        TraceV3Source truncated(path);
        SimConfig cfg = SimConfig::make(Machine::RPO);
        const RunStats r = sim::simulateTrace(cfg, truncated, name);
        check(truncated.error().kind == TraceError::Kind::TRUNCATED,
              std::string(name) + ": truncation not reported");
        check(r.x86Retired == 0,
              std::string(name) + ": truncated trace delivered records");
        std::printf("  %-6s truncated  -> %llu/%llu insts, error=%s\n",
                    name, (unsigned long long)r.x86Retired,
                    (unsigned long long)dump_insts,
                    trace::traceErrorKindName(truncated.error().kind));

        // A byte flip in the middle chunk's payload: the chunk checksum
        // stops the stream after exactly the chunks before it, and the
        // simulator completes on that prefix.
        TraceV3Writer::dumpProgram(w.buildProgram(0), dump_insts, path,
                                   v4opts);
        const auto &chunk = layout.chunks[layout.chunks.size() / 2];
        FaultInjector::flipByteAt(path, chunk.offset +
                                            trace::v4::CHUNK_HEADER_BYTES +
                                            chunk.payloadBytes / 2);
        TraceV3Source flipped(path);
        const RunStats f = sim::simulateTrace(cfg, flipped, name);
        check(flipped.error().kind == TraceError::Kind::BAD_CHECKSUM,
              std::string(name) + ": corruption not caught");
        check(f.x86Retired == chunk.firstRecord,
              std::string(name) + ": flipped trace not prefix-read");
        std::printf("  %-6s bit-flip   -> %llu/%llu insts, error=%s\n",
                    name, (unsigned long long)f.x86Retired,
                    (unsigned long long)dump_insts,
                    trace::traceErrorKindName(flipped.error().kind));
        std::filesystem::remove(path);
    }

    if (failures) {
        std::printf("\n%u FAILURE(S)\n", failures);
        return 1;
    }
    std::printf("\nall guarantees held\n");
    return 0;
}
