/**
 * @file
 * The trace record format of §5.1.1.
 *
 * Each record describes one retired x86 instruction: its decoded form
 * and modeled length (the "raw instruction data"), the register state
 * changes it made, its memory transactions (address + data for loads
 * and stores), and the resolved next PC.  Records are produced by the
 * Tracer from the functional executor and consumed by the simulator and
 * the state verifier — the paper obtained the same information from
 * AMD's hardware-captured trace files (see DESIGN.md substitutions).
 */

#ifndef REPLAY_TRACE_RECORD_HH
#define REPLAY_TRACE_RECORD_HH

#include <cstdint>
#include <vector>

#include "trace/error.hh"
#include "x86/executor.hh"
#include "x86/inst.hh"

namespace replay::trace {

/** One retired x86 instruction with its architectural side effects. */
struct TraceRecord
{
    static constexpr unsigned MAX_REG_WRITES = 2;
    static constexpr unsigned MAX_MEM_OPS = 2;

    uint32_t pc = 0;
    uint32_t nextPc = 0;
    x86::Inst inst;
    uint8_t length = 0;         ///< modeled x86 byte length
    bool taken = false;         ///< control transfer resolved taken
    bool wroteFlags = false;
    uint8_t flagsAfter = 0;     ///< packed x86::Flags after retirement

    uint8_t numRegWrites = 0;
    uint8_t numMemOps = 0;
    uint8_t numFregWrites = 0;
    x86::RegWrite regWrites[MAX_REG_WRITES];
    x86::MemOp memOps[MAX_MEM_OPS];
    x86::FRegWrite fregWrite;

    /** Populate from an executor step. */
    static TraceRecord fromStep(const x86::StepInfo &step);

    /**
     * Overwrite @p out with the record of @p step, leaving it equal to
     * fromStep(step) (unused side-effect entries are reset too).
     */
    static void fromStep(const x86::StepInfo &step, TraceRecord &out);

    bool isControl() const { return inst.isControl(); }
    bool isCondBranch() const { return inst.isCondBranch(); }
};

/**
 * A stream of trace records with bounded lookahead.
 *
 * The simulator needs to peek ahead one frame's worth of instructions
 * to resolve assertions and unsafe-store aliasing, so every source
 * exposes indexed peeking in addition to in-order consumption.
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Max records peek() can reach beyond the cursor. */
    static constexpr unsigned LOOKAHEAD = 512;

    /**
     * Record @p ahead positions past the cursor (0 = next record), or
     * nullptr if the trace ends first. ahead must be < LOOKAHEAD.
     */
    virtual const TraceRecord *peek(unsigned ahead = 0) = 0;

    /** Consume the record at the cursor. */
    virtual void advance() = 0;

    /** True once every record has been consumed. */
    virtual bool done() = 0;

    /** Records consumed so far. */
    virtual uint64_t consumed() const = 0;

    /**
     * Why the stream stopped early, or NONE (always, for in-memory and
     * synthesized sources).  A source that fails mid-stream reports
     * done() at its valid prefix; only this tells a damaged trace from
     * one that ended.
     */
    virtual const TraceError &
    error() const
    {
        static const TraceError none;
        return none;
    }
};

/** A TraceSource over an in-memory vector (tests, verifier replays). */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceRecord> records)
        : records_(std::move(records))
    {
    }

    const TraceRecord *
    peek(unsigned ahead = 0) override
    {
        const size_t idx = cursor_ + ahead;
        return idx < records_.size() ? &records_[idx] : nullptr;
    }

    void advance() override { ++cursor_; }
    bool done() override { return cursor_ >= records_.size(); }
    uint64_t consumed() const override { return cursor_; }

  private:
    std::vector<TraceRecord> records_;
    size_t cursor_ = 0;
};

} // namespace replay::trace

#endif // REPLAY_TRACE_RECORD_HH
