/**
 * @file
 * Trace generation: running a program through the functional executor
 * and exposing the retired-instruction stream as a TraceSource.
 */

#ifndef REPLAY_TRACE_TRACER_HH
#define REPLAY_TRACE_TRACER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "trace/record.hh"
#include "util/logging.hh"
#include "x86/executor.hh"
#include "x86/program.hh"

namespace replay::trace {

/**
 * A TraceSource that generates records on demand from an Executor.
 *
 * The source maintains a ring of up to LOOKAHEAD pre-executed records
 * so the simulator can resolve frame assertions and unsafe-store
 * aliasing before committing to a fetch path, without materializing
 * the whole trace (50M+ instructions in the paper's workloads).
 */
class ExecutorTraceSource final : public TraceSource
{
  public:
    /**
     * @param program   the program to run; must outlive the source
     * @param max_insts trace length in retired x86 instructions
     */
    ExecutorTraceSource(const x86::Program &program, uint64_t max_insts);

    /** As above, but the source owns @p program. */
    ExecutorTraceSource(x86::Program &&program, uint64_t max_insts);

    const TraceRecord *
    peek(unsigned ahead = 0) override
    {
        if (ahead < count_) [[likely]]
            return &ring_[(head_ + ahead) & RING_MASK];
        return peekSlow(ahead);
    }

    void
    advance() override
    {
        if (count_ == 0) [[unlikely]]
            fill(1);
        panic_if(count_ == 0, "advance past end of trace");
        head_ = (head_ + 1) & RING_MASK;
        --count_;
        ++consumed_;
    }

    bool
    done() override
    {
        if (count_ == 0) [[unlikely]]
            fill(1);
        return count_ == 0;
    }

    uint64_t consumed() const override { return consumed_; }

    /**
     * The backing executor (read-only).  Note it runs LOOKAHEAD-deep
     * ahead of the cursor; use it for initial-state snapshots before
     * the first peek, not for mid-trace state.
     */
    const x86::Executor &executor() const { return exec_; }

  private:
    /** peek() past the buffered records: synthesize up to @p ahead. */
    const TraceRecord *peekSlow(unsigned ahead);

    /** Ensure the ring holds at least @p n unconsumed records. */
    void fill(unsigned n);

    static constexpr size_t RING_SIZE = LOOKAHEAD * 2;
    static constexpr size_t RING_MASK = RING_SIZE - 1;
    static_assert((RING_SIZE & RING_MASK) == 0, "ring size power of two");

    std::unique_ptr<const x86::Program> owned_;    ///< before exec_
    x86::Executor exec_;
    x86::StepInfo step_;        ///< reused per synthesized record
    uint64_t budget_;           ///< records still allowed to be produced
    uint64_t consumed_ = 0;

    std::array<TraceRecord, RING_SIZE> ring_;
    size_t head_ = 0;           ///< ring index of the cursor record
    size_t count_ = 0;          ///< valid records in the ring
};

/** Materialize the first @p max_insts records of a program (tests). */
std::vector<TraceRecord> collectTrace(const x86::Program &program,
                                      uint64_t max_insts);

} // namespace replay::trace

#endif // REPLAY_TRACE_TRACER_HH
