/**
 * @file
 * The four evaluated machine configurations (§5.3):
 *
 *   IC  — conventional fetch through a 64kB ICache (reference)
 *   TC  — 16k-µop trace cache + 8kB ICache, fill unit builds traces
 *         with up to three branches, no optimization
 *   RP  — basic rePLay: 16k-µop frame cache + 8kB ICache, frames
 *         deposited unoptimized
 *   RPO — rePLay with the §3 optimizations
 */

#ifndef REPLAY_SIM_CONFIG_HH
#define REPLAY_SIM_CONFIG_HH

#include <string>

#include "core/sequencer.hh"
#include "fault/faultinjector.hh"
#include "timing/pipeline.hh"

namespace replay::sim {

enum class Machine : uint8_t
{
    IC,
    TC,
    RP,
    RPO,
};

const char *machineName(Machine machine);

/** Full description of one simulated machine. */
struct SimConfig
{
    Machine machine = Machine::RPO;
    timing::PipelineConfig pipe;
    core::EngineConfig engine;          ///< RP / RPO only

    // Trace-cache (TC) parameters.
    unsigned tcCapacityUops = 16384;
    unsigned tcMaxBranches = 3;
    unsigned tcMaxUops = 32;

    /** Instruction budget per trace (0 = run the source dry). */
    uint64_t maxInsts = 0;

    /**
     * Verify every COMMITS-dispatched frame against the trace span
     * before it commits; rejected frames roll back, pay the recovery
     * penalty, and are quarantined.  Off by default: the paper-shape
     * runs stay bit-identical to the seed.
     */
    bool verifyOnline = false;

    /** Fault-injection knobs (all rates 0 = injector disabled). */
    fault::FaultConfig fault;

    std::string name() const { return machineName(machine); }

    bool usesFrames() const
    {
        return machine == Machine::RP || machine == Machine::RPO;
    }
    bool usesTraceCache() const { return machine == Machine::TC; }

    /** The §5.3 configurations. */
    static SimConfig make(Machine machine);
};

} // namespace replay::sim

#endif // REPLAY_SIM_CONFIG_HH
