/**
 * @file
 * Trace-file workflow: capture a workload's dynamic trace to disk (the
 * equivalent of the paper's AMD-provided trace files), then reopen and
 * inspect it — disassembled instructions with their register and
 * memory side effects — and replay it through the simulator.
 *
 *   $ build/examples/trace_inspector [workload] [insts]
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "sim/simulator.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "x86/disasm.hh"

using namespace replay;

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "bzip2";
    const uint64_t insts =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 100000;

    const auto &w = trace::findWorkload(name);
    const auto prog = w.buildProgram(0);
    // A per-process file in $TMPDIR, so concurrent runs never share it.
    const std::string path =
        (std::filesystem::temp_directory_path() /
         (name + "." + std::to_string(unsigned(::getpid())) + ".rpl3"))
            .string();
    trace::TraceV3Writer::dumpProgram(prog, insts, path);
    std::printf("captured %llu instructions of %s to %s\n\n",
                (unsigned long long)insts, name.c_str(), path.c_str());

    // Inspect the first records, the way the paper's trace reader
    // disassembles raw instruction data (§5.1.1).
    trace::TraceV3Source src(path);
    std::printf("first 12 records:\n");
    for (unsigned i = 0; i < 12 && !src.done(); ++i) {
        const trace::TraceRecord *rec = src.peek();
        std::printf("  %08x  %-28s", rec->pc,
                    x86::disassemble(rec->inst).c_str());
        for (unsigned r = 0; r < rec->numRegWrites; ++r) {
            std::printf("  %s=%08x",
                        x86::regName(rec->regWrites[r].reg),
                        rec->regWrites[r].value);
        }
        for (unsigned m = 0; m < rec->numMemOps; ++m) {
            std::printf("  %s[%08x]=%08x",
                        rec->memOps[m].isStore ? "st" : "ld",
                        rec->memOps[m].addr, rec->memOps[m].data);
        }
        std::printf("\n");
        src.advance();
    }

    // Replay the rest of the file through the optimizing machine.
    trace::TraceV3Source replay_src(path);
    const auto stats = sim::simulateTrace(
        sim::SimConfig::make(sim::Machine::RPO), replay_src, name);
    std::printf("\nreplayed under RPO: IPC %.3f, %.0f%% coverage, "
                "%.0f%% micro-ops removed\n",
                stats.ipc(), stats.coverage() * 100,
                stats.uopReduction() * 100);
    std::remove(path.c_str());
    return 0;
}
