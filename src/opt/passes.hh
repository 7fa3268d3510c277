/**
 * @file
 * The optimization passes of §3 and their shared context.
 *
 * Seven optimizations run over the optimization buffer: NOP removal
 * (including internal unconditional branches), value-assertion
 * combining, constant/copy propagation, reassociation, common
 * subexpression elimination (including speculative redundant-load
 * elimination), store forwarding (including the speculative variant
 * that marks intervening stores unsafe), and dead code elimination.
 * DCE is always enabled — every other pass relies on it (§6.4).
 *
 * Each pass returns the number of changes it made; the Optimizer driver
 * iterates the pipeline until a fixed point.
 */

#ifndef REPLAY_OPT_PASSES_HH
#define REPLAY_OPT_PASSES_HH

#include <cstdint>
#include <optional>

#include "opt/optbuffer.hh"

namespace replay::opt {

/** Optimization scope (Figures 2 and 9). */
enum class Scope : uint8_t
{
    FRAME,      ///< whole frame as one atomic unit (§3.3)
    INTER_BLOCK,///< single entry, multiple exits (§3.2, a trace cache):
                ///< cross-block dataflow may be inspected, but every
                ///< block's architectural live-outs must be preserved
    BLOCK,      ///< each constituent basic block individually (§6.3)
};

/** Which optimizations run (Figure 10 disables them one at a time). */
struct OptConfig
{
    bool nopRemoval = true;         ///< "NOP" in Figure 10
    bool assertCombine = true;      ///< "ASST"
    bool constProp = true;          ///< "CP" (also copy propagation)
    bool reassoc = true;            ///< "RA"
    bool cse = true;                ///< "CSE"
    bool storeForward = true;       ///< "SF"
    bool speculativeMem = true;     ///< unsafe-store speculation (§3.4)
    Scope scope = Scope::FRAME;
    unsigned maxIterations = 4;

    /** The Figure 10 points. */
    static OptConfig allOn() { return {}; }

    static OptConfig
    allOff()
    {
        OptConfig c;
        c.nopRemoval = c.assertCombine = c.constProp = c.reassoc =
            c.cse = c.storeForward = c.speculativeMem = false;
        return c;
    }
    /**
     * Pass-subset encoding used by the differential fuzzer's reducer:
     * one bit per optional pass, in pipeline order (DCE is always
     * enabled — every other pass relies on it, §6.4).
     */
    enum PassBit : uint8_t
    {
        PASS_NOP = 0,
        PASS_ASST,
        PASS_CP,
        PASS_RA,
        PASS_CSE,
        PASS_SF,
        PASS_SPECMEM,
        NUM_PASS_BITS,
    };

    /** Short name of a pass bit ("NOP", "ASST", ...). */
    static const char *passBitName(unsigned bit);

    /** Pack the enabled-pass booleans into a bit mask. */
    uint8_t passMask() const;

    /** A config with exactly the passes of @p mask enabled. */
    static OptConfig fromPassMask(uint8_t mask);

    static OptConfig
    without(const std::string &name)
    {
        OptConfig c;
        if (name == "ASST")
            c.assertCombine = false;
        else if (name == "CP")
            c.constProp = false;
        else if (name == "CSE")
            c.cse = false;
        else if (name == "NOP")
            c.nopRemoval = false;
        else if (name == "RA")
            c.reassoc = false;
        else if (name == "SF")
            c.storeForward = false;
        return c;
    }
};

/** Aggregate counters across all optimized frames. */
struct OptStats
{
    uint64_t framesOptimized = 0;
    uint64_t inputUops = 0;
    uint64_t outputUops = 0;
    uint64_t inputLoads = 0;
    uint64_t outputLoads = 0;

    uint64_t nopsRemoved = 0;
    uint64_t assertsCombined = 0;
    uint64_t constantsFolded = 0;
    uint64_t copiesPropagated = 0;
    uint64_t reassociations = 0;
    uint64_t cseRemoved = 0;
    uint64_t loadsCseRemoved = 0;
    uint64_t loadsForwarded = 0;
    uint64_t speculativeLoadsRemoved = 0;
    uint64_t unsafeStoresMarked = 0;
    uint64_t deadRemoved = 0;

    void merge(const OptStats &other);

    double
    uopReduction() const
    {
        return inputUops ? 1.0 - double(outputUops) / double(inputUops)
                         : 0.0;
    }

    double
    loadReduction() const
    {
        return inputLoads
                   ? 1.0 - double(outputLoads) / double(inputLoads)
                   : 0.0;
    }
};

/**
 * Aliasing observations fed to the speculative memory optimizations
 * (§3.4): "We record aliasing events during execution and pass this
 * information to the optimizer."
 */
class AliasHints
{
  public:
    virtual ~AliasHints() = default;

    /**
     * May the optimizer speculate that the store identified by its
     * provenance never aliases?  False once an aliasing event has been
     * observed for it.
     */
    virtual bool cleanForSpeculation(uint32_t x86_pc,
                                     uint8_t mem_seq) const = 0;
};

/** Everything a pass needs. */
struct OptContext
{
    OptBuffer &buf;
    const OptConfig &cfg;
    const AliasHints *alias = nullptr;  ///< null = never speculate
    OptStats &stats;

    /** Both slots in the same optimization scope? */
    bool
    sameScope(size_t a, size_t b) const
    {
        return cfg.scope != Scope::BLOCK ||
               buf.at(a).block == buf.at(b).block;
    }

    /**
     * May a pass working at slot @p at inspect the producer behind
     * @p op (follow the parent edge and use its fields)?
     */
    bool
    inspectable(size_t at, const Operand &op) const
    {
        return op.isProd() && buf.at(op.idx).valid &&
               sameScope(at, op.idx);
    }
};

/** A slot's flags result is observable (consumed or exit-bound)? */
bool flagsObservable(const OptBuffer &buf, size_t idx);

/**
 * Redirect uses of slot @p producer's register value (or flags value
 * when @p flags_view) to @p to, honouring the optimization scope:
 * only consumers in the producer's scope are rewritten, and exit
 * bindings are rewritten only when the exit belongs to the producer's
 * scope.  Returns the number of rewrites.
 */
unsigned replaceUsesScoped(OptContext &ctx, size_t producer,
                           bool flags_view, const Operand &to);

// --- the passes ---------------------------------------------------------

unsigned passNopRemoval(OptContext &ctx);
unsigned passAssertCombine(OptContext &ctx);
unsigned passConstProp(OptContext &ctx);
unsigned passReassociate(OptContext &ctx);
unsigned passCse(OptContext &ctx);
unsigned passStoreForward(OptContext &ctx);
unsigned passDce(OptContext &ctx);

// --- shared memory-address reasoning ------------------------------------

/** Symbolic address of a memory micro-op. */
struct AddrKey
{
    Operand base;
    Operand index;
    uint8_t scale = 1;
    int32_t disp = 0;
    uint8_t size = 4;

    /** Works on both materialized FrameUops and OptBuffer cursors. */
    template <typename UopView>
    static AddrKey
    of(const UopView &fu)
    {
        AddrKey key;
        key.base = fu.srcA;
        key.index = fu.uop.isStore() ? fu.srcC : fu.srcB;
        key.scale = fu.uop.scale;
        key.disp = fu.uop.imm;
        key.size = fu.uop.memSize;
        return key;
    }

    /** Same location, same width (§6.4: symbolic base, literal disp). */
    bool sameAddress(const AddrKey &other) const;

    /** Provably non-overlapping (same symbolic base, disjoint range). */
    bool provablyDisjoint(const AddrKey &other) const;
};

} // namespace replay::opt

#endif // REPLAY_OPT_PASSES_HH
