/**
 * @file
 * Workload definitions and the program synthesizer.
 *
 * The paper's workloads are proprietary AMD hardware traces of SPECint
 * 2000 and Winstone desktop applications (Table 1).  We substitute a
 * *personality-driven program synthesizer*: each application is
 * described by a Personality — a set of statistical knobs (branch bias
 * mix, call density, load redundancy, store aliasing, FP content, code
 * and data footprint) — from which a concrete x86-subset program is
 * generated deterministically.  Running the program through the
 * functional executor yields the dynamic trace.  See DESIGN.md for why
 * this substitution preserves the behaviours the evaluation measures.
 */

#ifndef REPLAY_TRACE_WORKLOAD_HH
#define REPLAY_TRACE_WORKLOAD_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/tracer.hh"
#include "x86/program.hh"

namespace replay::trace {

/** Application categories from Table 1. */
enum class AppType
{
    SPECint,
    Business,
    Content,
};

const char *appTypeName(AppType type);

/** Statistical description of an application's hot code. */
struct Personality
{
    uint64_t seed = 1;

    // --- code shape -----------------------------------------------------
    unsigned numHotProcs = 6;       ///< distinct hot procedures
    unsigned segmentsPerProc = 5;   ///< pattern segments per procedure
    unsigned calleeSaves = 2;       ///< pushed/popped registers per proc

    // --- branch behaviour -------------------------------------------------
    double biasedBranchRate = 0.25; ///< biased branch segments per segment
    unsigned biasBits = 5;          ///< bias = 1 - 2^-biasBits
    double unbiasedBranchRate = 0.06; ///< frame-breaking branches
    double indirectRate = 0.02;     ///< jump-table dispatch segments
    unsigned jumpTableSize = 4;

    // --- loops -----------------------------------------------------------
    double loopRate = 0.008;        ///< inner counted-loop segments
    unsigned loopTrip = 96;         ///< iterations per inner loop
    unsigned loopUnroll = 4;        ///< body copies inside the loop

    // --- memory behaviour ---------------------------------------------------
    double memSegRate = 0.35;       ///< load/compute/store segments
    double redundantLoadRate = 0.4; ///< re-load of a just-accessed slot
    double aliasSegRate = 0.0;      ///< runtime-aliasing store segments
    unsigned aliasMaskBits = 3;     ///< alias probability = 2^-bits
    unsigned dataKB = 16;           ///< data working set

    // --- other content ---------------------------------------------------------
    double fpSegRate = 0.0;         ///< scalar FP kernel segments
    double divSegRate = 0.0;        ///< DIV (fixed-register) segments
    double leaSegRate = 0.08;       ///< address-arithmetic segments
};

/** One application from Table 1. */
struct Workload
{
    std::string name;
    AppType type;
    uint64_t paperInsts = 0;        ///< x86 inst count reported in Table 1
    unsigned numTraces = 1;         ///< hot spots / trace files
    Personality personality;

    /** Synthesize the program for hot spot @p trace_idx (0-based). */
    x86::Program buildProgram(unsigned trace_idx) const;

    /** Open a trace source over hot spot @p trace_idx (owns its program). */
    std::unique_ptr<ExecutorTraceSource>
    openTrace(unsigned trace_idx, uint64_t max_insts) const;
};

/** The 14 applications of Table 1. */
const std::vector<Workload> &standardWorkloads();

/** Find a standard workload by name; fatal if unknown. */
const Workload &findWorkload(const std::string &name);

/**
 * Generate a program directly from a personality (public entry point
 * for custom workloads; see examples/custom_workload.cc).
 */
x86::Program synthesizeProgram(const Personality &personality);

} // namespace replay::trace

#endif // REPLAY_TRACE_WORKLOAD_HH
