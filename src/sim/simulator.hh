/**
 * @file
 * The trace-driven simulator (Figure 5): consumes a trace source and
 * models one of the four machine configurations cycle-by-cycle,
 * producing the RunStats all tables and figures are computed from.
 *
 * The fetch engine is the cycle master.  On the conventional path,
 * instructions are fetched through the ICache and decoded (4 per
 * cycle); with rePLay enabled, the sequencer first probes the frame
 * cache, resolves the frame's assertions and unsafe stores against the
 * upcoming trace, and either fetches the whole frame (8 µops/cycle,
 * atomic commit) or charges the pessimistic recovery latency and
 * re-executes the original instructions.  The trace-cache machine
 * fetches the matching prefix of a cached trace.
 */

#ifndef REPLAY_SIM_SIMULATOR_HH
#define REPLAY_SIM_SIMULATOR_HH

#include <memory>

#include "sim/config.hh"
#include "sim/results.hh"
#include "sim/tracecachefill.hh"
#include "timing/fetch.hh"
#include "verify/online.hh"

namespace replay::sim {

/** Runs one trace under one configuration. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig &cfg);
    ~Simulator();

    /** Consume @p src (up to cfg.maxInsts) and return the statistics. */
    RunStats run(trace::TraceSource &src);

    /** The rePLay engine (RP/RPO; null otherwise) — for inspection. */
    core::RePlayEngine *engine() { return engine_.get(); }

    /** The online verifier (cfg.verifyOnline; null otherwise). */
    verify::OnlineVerifier *online() { return online_.get(); }

    /** The execution core model (its ring probes are a work counter). */
    const timing::ExecModel &execModel() const { return exec_; }

    /**
     * x86->µop translations made for this run (work counter): the
     * conventional fetch path, frame bodies built by the engine, and
     * traces inserted by the fill unit.  Outside RunStats and every
     * fingerprint.
     */
    uint64_t translations() const;

  private:
    struct Rat;

    void simulateIcacheInst(const trace::TraceRecord &rec,
                            trace::TraceSource &src);
    void simulateFrame(const core::FramePtr &frame,
                       trace::TraceSource &src);
    void simulateTracePrefix(const core::FramePtr &trace_frame,
                             trace::TraceSource &src);

    SimConfig cfg_;
    RunStats stats_;

    timing::FrontEnd fe_;
    timing::MemoryHierarchy mem_;
    timing::ExecModel exec_;
    timing::BranchPredictor bpred_;
    uop::Translator translator_;
    std::unique_ptr<fault::FaultInjector> injector_;    ///< before engine_
    std::unique_ptr<core::RePlayEngine> engine_;
    std::unique_ptr<TraceCacheUnit> tcache_;
    std::unique_ptr<verify::OnlineVerifier> online_;

    /** Completion time of each architectural register + flags. */
    std::unique_ptr<Rat> rat_;

    /** Force conventional fetch until this many records consumed. */
    uint64_t icacheForcedUntil_ = 0;

    bool lastWasFrame_ = false;
};

/** Convenience: run one workload trace under a configuration. */
RunStats simulateTrace(const SimConfig &cfg, trace::TraceSource &src,
                       const std::string &workload_name);

} // namespace replay::sim

#endif // REPLAY_SIM_SIMULATOR_HH
