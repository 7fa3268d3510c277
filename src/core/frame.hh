/**
 * @file
 * The frame: rePLay's atomic optimization region (§2).
 *
 * A frame covers a dynamic sequence of x86 instructions whose internal
 * control flow has been converted to assertions.  It carries both the
 * optimized micro-op body (for fetch/execute) and the metadata the
 * trace-driven simulator needs: the expected x86 path (to resolve
 * assertions against the trace) and the unsafe-store identities (to
 * resolve aliasing conflicts).
 */

#ifndef REPLAY_CORE_FRAME_HH
#define REPLAY_CORE_FRAME_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "opt/optimizer.hh"
#include "trace/record.hh"

namespace replay::core {

/** Identity of a memory access: which frame instruction, which access. */
struct MemRef
{
    uint16_t instIdx = 0;   ///< x86 instruction index within the frame
    uint8_t memSeq = 0;     ///< index among that instruction's accesses

    bool operator==(const MemRef &) const = default;
    bool
    operator<(const MemRef &other) const
    {
        return instIdx != other.instIdx ? instIdx < other.instIdx
                                        : memSeq < other.memSeq;
    }
};

/** One atomic frame. */
struct Frame
{
    uint64_t id = 0;
    uint32_t startPc = 0;

    /**
     * The x86 path the frame encodes: pcs[i] is instruction i, and
     * after the last instruction control continues at nextPc.  A
     * divergence of the dynamic stream from this path is exactly an
     * assertion firing.
     */
    std::vector<uint32_t> pcs;
    uint32_t nextPc = 0;

    /**
     * instUops[i]: µops instruction i translates to (before
     * optimization).  A committed frame hands these to the frame
     * constructor so its instructions are not decoded again.  Empty
     * for trace-cache traces.
     */
    std::vector<uint8_t> instUops;

    /**
     * The frame ends with an unconverted indirect jump, so control
     * past the frame is dynamic; nextPc is only the target observed at
     * construction and a different runtime target is not an assertion.
     */
    bool dynamicExit = false;

    unsigned numBlocks = 1;

    /** Optimized body (or the remapped original for plain rePLay). */
    opt::OptimizedFrame body;

    /** Stores marked unsafe by speculative memory optimization. */
    std::vector<MemRef> unsafeStores;

    // -- usage statistics (updated by the sequencer) -----------------
    uint64_t fetches = 0;
    uint64_t assertFires = 0;
    uint64_t conflicts = 0;

    /**
     * Fault-injection harness metadata: true while the body differs
     * from the pristine (verified-clean) body deposited by the
     * optimizer — a later flip can land on the same bit and revert an
     * earlier one, so the flag is recomputed against bodyHash on every
     * injection.  Bookkeeping only: the online verifier never reads
     * it; it exists so runs can prove no corrupted frame reached
     * architectural commit.
     */
    bool faultInjected = false;
    uint64_t bodyHash = 0;      ///< hash of the pristine body

    unsigned numX86Insts() const { return unsigned(pcs.size()); }
    unsigned numUops() const { return body.numUops(); }

    /** The expected next PC after instruction index @p idx. */
    uint32_t
    expectedNext(size_t idx) const
    {
        return idx + 1 < pcs.size() ? pcs[idx + 1] : nextPc;
    }
};

using FramePtr = std::shared_ptr<Frame>;

/**
 * Outcome of matching a frame against the upcoming trace records
 * (performed by the sequencer before committing to frame fetch).
 */
struct FrameOutcome
{
    enum class Kind
    {
        COMMITS,            ///< the whole frame retires
        ASSERTS,            ///< path diverges at instruction `faultIndex`
        UNSAFE_CONFLICT,    ///< an unsafe store aliases at `faultIndex`
    };

    Kind kind = Kind::COMMITS;
    unsigned faultIndex = 0;    ///< x86 index within the frame
};

/**
 * Resolve a frame against the trace: walk the next records and decide
 * whether every assertion holds and no unsafe store conflicts.
 */
FrameOutcome resolveFrame(const Frame &frame, trace::TraceSource &src);

} // namespace replay::core

#endif // REPLAY_CORE_FRAME_HH
