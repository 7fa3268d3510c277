/**
 * @file
 * The rePLay optimization engine driver.
 *
 * Runs the §3 pass pipeline over a frame's micro-ops to a fixed point
 * (bounded by OptConfig::maxIterations), then performs the Cleanup
 * step: invalidated slots are deleted and the survivors are read out in
 * position order with operand indices compacted.
 */

#ifndef REPLAY_OPT_OPTIMIZER_HH
#define REPLAY_OPT_OPTIMIZER_HH

#include <memory>
#include <vector>

#include "opt/passes.hh"
#include "opt/remapper.hh"

namespace replay::opt {

/**
 * The optimizer's output: a compacted, renamed frame body.
 *
 * Stored structure-of-arrays: the micro-op fields live in a
 * uop::UopSlab (`code`) plus parallel operand/slot planes, so the
 * simulator's dispatch loop, frameexec, and the verifier sweep only
 * the planes they need.  All slots are valid (cleanup dropped the
 * rest); PROD operand indices refer to compacted slot order.
 */
struct OptimizedFrame
{
    /** Surviving micro-op fields, one plane each (incl. attr bitset). */
    uop::UopSlab code;

    /** Renamed source operands, parallel to `code`. */
    std::vector<Operand> srcA, srcB, srcC, flagsSrc;

    /** Unsafe-store marks, original slot positions, block indices. */
    std::vector<uint8_t> unsafe;
    std::vector<uint16_t> position;
    std::vector<uint16_t> block;

    /** Architectural bindings at the frame boundary. */
    ExitBinding exit;

    unsigned inputUops = 0;
    unsigned inputLoads = 0;
    unsigned outputLoads = 0;

    /** Datapath primitive usage during this optimization. */
    PrimitiveCounts prims;

    /**
     * Modeled optimization latency (§5.1.4: "a variable latency of 10
     * cycles per instruction").
     */
    uint64_t latencyCycles = 0;

    size_t size() const { return code.size(); }
    unsigned numUops() const { return unsigned(code.size()); }

    /** Materialize slot @p i (AoS snapshot; output slots are valid). */
    FrameUop
    at(size_t i) const
    {
        FrameUop fu;
        fu.uop = code.get(i);
        fu.srcA = srcA[i];
        fu.srcB = srcB[i];
        fu.srcC = srcC[i];
        fu.flagsSrc = flagsSrc[i];
        fu.valid = true;
        fu.unsafe = unsafe[i] != 0;
        fu.position = position[i];
        fu.block = block[i];
        return fu;
    }

    /** Materializing forward iterator (yields AoS snapshots). */
    struct ConstIter
    {
        const OptimizedFrame *f;
        size_t i;
        FrameUop operator*() const { return f->at(i); }
        ConstIter &operator++() { ++i; return *this; }
        bool operator!=(const ConstIter &o) const { return i != o.i; }
    };
    ConstIter begin() const { return {this, 0}; }
    ConstIter end() const { return {this, size()}; }

    /** Append a materialized micro-op (tests / round-trip oracle). */
    void
    push(const FrameUop &fu)
    {
        code.push(fu.uop);
        srcA.push_back(fu.srcA);
        srcB.push_back(fu.srcB);
        srcC.push_back(fu.srcC);
        flagsSrc.push_back(fu.flagsSrc);
        unsafe.push_back(fu.unsafe);
        position.push_back(fu.position);
        block.push_back(fu.block);
    }

    /** Truncate/extend the body (tests); new slots default-constructed. */
    void
    resize(size_t n)
    {
        code.resize(n);
        srcA.resize(n);
        srcB.resize(n);
        srcC.resize(n);
        flagsSrc.resize(n);
        unsafe.resize(n);
        position.resize(n);
        block.resize(n);
    }

    /** Reset to empty; planes keep capacity (pooled frame bodies). */
    void
    clear()
    {
        code.clear();
        srcA.clear();
        srcB.clear();
        srcC.clear();
        flagsSrc.clear();
        unsafe.clear();
        position.clear();
        block.clear();
    }
};

/** The pipeline passes, in execution order (DCE included). */
enum class PassId : uint8_t
{
    NOP,
    ASST,
    CP,
    RA,
    CSE,
    SF,
    DCE,
};

inline constexpr unsigned NUM_PASS_IDS = 7;

/** Short name of a pass ("NOP", "ASST", ...). */
const char *passIdName(PassId id);

/**
 * Observes the optimizer's intermediate states — the seam the static
 * translation validator (src/verify/static) attaches to.  One observer
 * instance is created per optimize() invocation, so implementations
 * may keep per-frame state without synchronization even when many
 * frames optimize concurrently.
 */
class PassObserver
{
  public:
    virtual ~PassObserver() = default;

    /** The buffer right after remapping, before any pass runs. */
    virtual void onRemapped(const OptBuffer &buf) = 0;

    /** After each pass invocation, with its reported change count. */
    virtual void onPass(PassId pass, unsigned changed,
                        const OptBuffer &buf) = 0;

    /** The compacted output (also fires on the passthrough path). */
    virtual void onFinalized(const OptimizedFrame &out) = 0;
};

/**
 * Global observer factory.  The optimizer cannot depend on the
 * verification layer, so checkers inject themselves through this
 * inversion point; a null factory (the default) costs one atomic load
 * per optimized frame.  @p alias may be null.
 */
using PassObserverFactory =
    std::unique_ptr<PassObserver> (*)(const OptConfig &cfg,
                                      const AliasHints *alias);

void setPassObserverFactory(PassObserverFactory factory);
PassObserverFactory passObserverFactory();

/** Drives remapping, the pass pipeline, and cleanup. */
class Optimizer
{
  public:
    explicit Optimizer(OptConfig cfg = {}) : cfg_(cfg) {}

    const OptConfig &config() const { return cfg_; }

    /**
     * Optimize one frame.
     *
     * @param uops   frame micro-ops in architectural form
     * @param blocks basic-block index per micro-op (may be empty)
     * @param alias  aliasing observations, or nullptr to forbid
     *               speculative memory optimization
     * @param stats  accumulates optimization counters
     */
    OptimizedFrame
    optimize(const std::vector<uop::Uop> &uops,
             const std::vector<uint16_t> &blocks,
             const AliasHints *alias, OptStats &stats) const
    {
        OptimizedFrame out;
        optimize(uops, blocks, alias, stats, out);
        return out;
    }

    /**
     * Optimize one frame into @p out (overwritten; its vectors keep
     * their capacity, so a pooled frame body stops allocating once
     * warm).
     */
    void optimize(const std::vector<uop::Uop> &uops,
                  const std::vector<uint16_t> &blocks,
                  const AliasHints *alias, OptStats &stats,
                  OptimizedFrame &out) const;

    /**
     * Remap and compact without running any pass — the plain-rePLay
     * (RP) path, where frames go straight from the constructor into
     * the frame cache (§6.3).
     *
     * @param frame_semantics the body is an atomic frame and must obey
     *        the frame IR invariants; pass observers (the static
     *        checker) are only notified when true.  Trace-cache fills
     *        pass false: their traces carry embedded conditional
     *        branches and side exits by design.
     */
    static OptimizedFrame
    passthrough(const std::vector<uop::Uop> &uops,
                const std::vector<uint16_t> &blocks,
                bool frame_semantics = true)
    {
        OptimizedFrame out;
        passthrough(uops, blocks, frame_semantics, out);
        return out;
    }

    /** The RP path, into @p out (overwritten, capacity reused). */
    static void passthrough(const std::vector<uop::Uop> &uops,
                            const std::vector<uint16_t> &blocks,
                            bool frame_semantics, OptimizedFrame &out);

    /** Cycles the abstract engine spends on a frame of @p n micro-ops. */
    static uint64_t
    latencyFor(unsigned n)
    {
        return uint64_t(n) * CYCLES_PER_UOP;
    }

    static constexpr unsigned CYCLES_PER_UOP = 10;

  private:
    OptConfig cfg_;
};

} // namespace replay::opt

#endif // REPLAY_OPT_OPTIMIZER_HH
