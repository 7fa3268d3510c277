/**
 * @file
 * Structure-of-arrays storage for micro-op sequences.
 *
 * The AoS `Uop` struct is ~48 bytes of mostly-cold fields; the frame
 * optimizer's passes, the static verifier's dataflow sweeps, and the
 * simulator's per-fetch loop each touch only a few of them per
 * micro-op.  UopSlab stores each field in its own contiguous plane so
 * those walks become linear scans of exactly the bytes they need, plus
 * a packed per-uop attribute bitset (`attr`) combining the boolean
 * behaviour flags with kind bits derived from the opcode, so the hot
 * isLoad/isStore/isMem/isControl tests are single AND instructions
 * with no switch.
 *
 * The planes live in ONE backing allocation (the slab), partitioned
 * at capacity-scaled offsets: 4-byte planes first, then 2-byte, then
 * the byte planes, so every plane is naturally aligned for any
 * capacity.  One slab = one malloc = one locality domain; growing or
 * copying a body is a single allocation plus per-plane memcpys, and
 * appends are a bounds check plus plain indexed stores — not
 * twenty-two per-vector grow checks.
 *
 * Lifetime/recycling rules (see DESIGN.md "SoA slab lifetime"): slabs
 * live inside pooled Frame bodies and thread-local optimizer scratch;
 * clear() keeps the backing slab, so a recycled body stops allocating
 * once warm, exactly like the PR 5 arena-backed vectors it replaces.
 * The attribute plane is derived state: push()/set() recompute it, and
 * code that mutates field planes directly must call refreshAttr()
 * (the optimization buffer does this on compaction).
 */

#ifndef REPLAY_UOP_SOA_HH
#define REPLAY_UOP_SOA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>

#include "uop/uop.hh"

namespace replay::uop {

/** Bits of the packed per-uop attribute plane. */
enum UopAttr : uint16_t
{
    // Behaviour flags (mirrors of the boolean fields).
    UA_SIGN_EXTEND  = 1u << 0,
    UA_READS_FLAGS  = 1u << 1,
    UA_WRITES_FLAGS = 1u << 2,
    UA_CARRY_ONLY   = 1u << 3,
    UA_VALUE_ASSERT = 1u << 4,
    UA_LAST_OF_INST = 1u << 5,
    // Kind bits, a pure function of the opcode.
    UA_KIND_LOAD    = 1u << 8,
    UA_KIND_STORE   = 1u << 9,
    UA_KIND_CONTROL = 1u << 10,
    UA_KIND_ASSERT  = 1u << 11,
    UA_KIND_FP      = 1u << 12,

    UA_KIND_MEM = UA_KIND_LOAD | UA_KIND_STORE,
};

/** Kind bits of an opcode (branchless test fodder: one table load). */
constexpr uint16_t
kindBitsOf(Op op)
{
    switch (op) {
      case Op::LOAD:
        return UA_KIND_LOAD;
      case Op::FLOAD:
        return UA_KIND_LOAD | UA_KIND_FP;
      case Op::STORE:
        return UA_KIND_STORE;
      case Op::FSTORE:
        return UA_KIND_STORE | UA_KIND_FP;
      case Op::BR:
      case Op::JMP:
      case Op::JMPI:
        return UA_KIND_CONTROL;
      case Op::ASSERT:
        return UA_KIND_ASSERT;
      case Op::FADD:
      case Op::FSUB:
      case Op::FMUL:
      case Op::FDIV:
        return UA_KIND_FP;
      default:
        return 0;
    }
}

/**
 * A sequence of micro-ops, one plane per field, all planes in one
 * backing allocation.
 *
 * The plane pointers are public for indexed access (`slab.op[i]`);
 * slots at index >= size() are dead storage.  Iterate with size().
 */
struct UopSlab
{
    // ---- 4-byte planes --------------------------------------------------
    int32_t *imm = nullptr;
    uint32_t *target = nullptr;
    uint32_t *x86Pc = nullptr;
    // ---- 2-byte planes --------------------------------------------------
    uint16_t *instIdx = nullptr;
    /** Packed attribute bitset (UopAttr), derived from the fields. */
    uint16_t *attr = nullptr;
    // ---- byte planes ----------------------------------------------------
    Op *op = nullptr;
    x86::Cond *cc = nullptr;
    UReg *dst = nullptr;
    UReg *srcA = nullptr;           ///< architectural names
    UReg *srcB = nullptr;
    UReg *srcC = nullptr;
    uint8_t *scale = nullptr;
    uint8_t *memSize = nullptr;
    // Boolean behaviour flags, one byte each so passes can take
    // references; `attr` packs them (plus kind bits) for readers.
    uint8_t *signExtend = nullptr;
    uint8_t *readsFlags = nullptr;
    uint8_t *writesFlags = nullptr;
    uint8_t *flagsCarryOnly = nullptr;
    uint8_t *valueAssert = nullptr;
    uint8_t *lastOfInst = nullptr;
    Op *assertOp = nullptr;
    uint8_t *microIdx = nullptr;
    uint8_t *memSeq = nullptr;

    /** Bytes of slab storage per micro-op of capacity. */
    static constexpr size_t BYTES_PER_UOP = 3 * 4 + 2 * 2 + 17;

    UopSlab() = default;
    UopSlab(const UopSlab &o) { assign(o); }
    UopSlab &
    operator=(const UopSlab &o)
    {
        if (this != &o)
            assign(o);
        return *this;
    }
    UopSlab(UopSlab &&o) noexcept { *this = std::move(o); }
    UopSlab &operator=(UopSlab &&o) noexcept;
    ~UopSlab() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    size_t capacity() const { return cap_; }

    /** Reset to empty; the backing slab is kept (pool reuse). */
    void clear() { size_ = 0; }

    /** Ensure room for @p n micro-ops (one allocation). */
    void
    reserve(size_t n)
    {
        if (n > cap_)
            setCapacity(n);
    }

    /** Resize; new slots hold default-constructed micro-ops. */
    void resize(size_t n);

    /** Append one micro-op, scattering it across the planes. */
    void
    push(const Uop &u)
    {
        const size_t i = size_;
        if (i == cap_)
            grow();
        op[i] = u.op;
        cc[i] = u.cc;
        dst[i] = u.dst;
        srcA[i] = u.srcA;
        srcB[i] = u.srcB;
        srcC[i] = u.srcC;
        imm[i] = u.imm;
        scale[i] = u.scale;
        memSize[i] = u.memSize;
        signExtend[i] = u.signExtend;
        readsFlags[i] = u.readsFlags;
        writesFlags[i] = u.writesFlags;
        flagsCarryOnly[i] = u.flagsCarryOnly;
        valueAssert[i] = u.valueAssert;
        lastOfInst[i] = u.lastOfInst;
        assertOp[i] = u.assertOp;
        target[i] = u.target;
        x86Pc[i] = u.x86Pc;
        instIdx[i] = u.instIdx;
        microIdx[i] = u.microIdx;
        memSeq[i] = u.memSeq;
        attr[i] = attrOf(u);
        size_ = i + 1;
    }

    /** Append slot @p i of @p other (plane-wise; attr copied). */
    void
    pushFrom(const UopSlab &other, size_t i)
    {
        const size_t k = size_;
        if (k == cap_)
            grow();
        op[k] = other.op[i];
        cc[k] = other.cc[i];
        dst[k] = other.dst[i];
        srcA[k] = other.srcA[i];
        srcB[k] = other.srcB[i];
        srcC[k] = other.srcC[i];
        imm[k] = other.imm[i];
        scale[k] = other.scale[i];
        memSize[k] = other.memSize[i];
        signExtend[k] = other.signExtend[i];
        readsFlags[k] = other.readsFlags[i];
        writesFlags[k] = other.writesFlags[i];
        flagsCarryOnly[k] = other.flagsCarryOnly[i];
        valueAssert[k] = other.valueAssert[i];
        lastOfInst[k] = other.lastOfInst[i];
        assertOp[k] = other.assertOp[i];
        target[k] = other.target[i];
        x86Pc[k] = other.x86Pc[i];
        instIdx[k] = other.instIdx[i];
        microIdx[k] = other.microIdx[i];
        memSeq[k] = other.memSeq[i];
        attr[k] = other.attr[i];
        size_ = k + 1;
    }

    /** Gather slot @p i back into architectural form. */
    Uop
    get(size_t i) const
    {
        Uop u;
        u.op = op[i];
        u.cc = cc[i];
        u.dst = dst[i];
        u.srcA = srcA[i];
        u.srcB = srcB[i];
        u.srcC = srcC[i];
        u.imm = imm[i];
        u.scale = scale[i];
        u.memSize = memSize[i];
        u.signExtend = signExtend[i];
        u.readsFlags = readsFlags[i];
        u.writesFlags = writesFlags[i];
        u.flagsCarryOnly = flagsCarryOnly[i];
        u.valueAssert = valueAssert[i];
        u.lastOfInst = lastOfInst[i];
        u.assertOp = assertOp[i];
        u.target = target[i];
        u.x86Pc = x86Pc[i];
        u.instIdx = instIdx[i];
        u.microIdx = microIdx[i];
        u.memSeq = memSeq[i];
        return u;
    }

    /** Overwrite slot @p i (attr recomputed). */
    void
    set(size_t i, const Uop &u)
    {
        op[i] = u.op;
        cc[i] = u.cc;
        dst[i] = u.dst;
        srcA[i] = u.srcA;
        srcB[i] = u.srcB;
        srcC[i] = u.srcC;
        imm[i] = u.imm;
        scale[i] = u.scale;
        memSize[i] = u.memSize;
        signExtend[i] = u.signExtend;
        readsFlags[i] = u.readsFlags;
        writesFlags[i] = u.writesFlags;
        flagsCarryOnly[i] = u.flagsCarryOnly;
        valueAssert[i] = u.valueAssert;
        lastOfInst[i] = u.lastOfInst;
        assertOp[i] = u.assertOp;
        target[i] = u.target;
        x86Pc[i] = u.x86Pc;
        instIdx[i] = u.instIdx;
        microIdx[i] = u.microIdx;
        memSeq[i] = u.memSeq;
        attr[i] = attrOf(u);
    }

    /** Recompute the packed attribute bitset of slot @p i. */
    void
    refreshAttr(size_t i)
    {
        uint16_t a = kindBitsOf(op[i]);
        a |= signExtend[i] ? UA_SIGN_EXTEND : 0;
        a |= readsFlags[i] ? UA_READS_FLAGS : 0;
        a |= writesFlags[i] ? UA_WRITES_FLAGS : 0;
        a |= flagsCarryOnly[i] ? UA_CARRY_ONLY : 0;
        a |= valueAssert[i] ? UA_VALUE_ASSERT : 0;
        a |= lastOfInst[i] ? UA_LAST_OF_INST : 0;
        attr[i] = a;
    }

    /** The attribute bitset a micro-op would get. */
    static uint16_t
    attrOf(const Uop &u)
    {
        uint16_t a = kindBitsOf(u.op);
        a |= u.signExtend ? UA_SIGN_EXTEND : 0;
        a |= u.readsFlags ? UA_READS_FLAGS : 0;
        a |= u.writesFlags ? UA_WRITES_FLAGS : 0;
        a |= u.flagsCarryOnly ? UA_CARRY_ONLY : 0;
        a |= u.valueAssert ? UA_VALUE_ASSERT : 0;
        a |= u.lastOfInst ? UA_LAST_OF_INST : 0;
        return a;
    }

    /** Live-prefix equality (dead storage past size() is ignored). */
    bool operator==(const UopSlab &o) const;

  private:
    /** Move to a new backing slab of @p n slots, keeping live data. */
    void setCapacity(size_t n);

    /** Deep-copy @p o's live prefix (capacity grows if needed). */
    void assign(const UopSlab &o);

    /** Geometric growth for push paths. */
    void grow() { setCapacity(cap_ < 16 ? 32 : cap_ * 2); }

    std::unique_ptr<std::byte[]> buf_;
    size_t cap_ = 0;
    size_t size_ = 0;
};

} // namespace replay::uop

#endif // REPLAY_UOP_SOA_HH
