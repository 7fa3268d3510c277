#include "trace/chunk.hh"

#include <algorithm>
#include <unordered_map>

namespace replay::trace::wire {

size_t
encodeRecord(const TraceRecord &rec, uint8_t *out)
{
    Encoder e{out};
    e.u32(rec.pc);
    e.u32(rec.nextPc);
    e.u8(rec.length);
    e.u8(rec.taken);
    e.u8(rec.wroteFlags);
    e.u8(rec.flagsAfter);

    // Instruction encoding ("raw instruction data").
    const x86::Inst &in = rec.inst;
    e.u8(uint8_t(in.mnem));
    e.u8(uint8_t(in.form));
    e.u8(uint8_t(in.cc));
    e.u8(uint8_t(in.reg1));
    e.u8(uint8_t(in.reg2));
    e.u8(uint8_t(in.freg1));
    e.u8(uint8_t(in.freg2));
    e.u8(uint8_t(in.mem.base));
    e.u8(uint8_t(in.mem.index));
    e.u8(in.mem.scale);
    e.u32(uint32_t(in.mem.disp));
    e.u64(uint64_t(in.imm));
    e.u32(in.target);
    e.u8(in.opSize);

    // Side effects.
    e.u8(rec.numRegWrites);
    for (unsigned i = 0; i < TraceRecord::MAX_REG_WRITES; ++i) {
        e.u8(uint8_t(rec.regWrites[i].reg));
        e.u32(rec.regWrites[i].value);
    }
    e.u8(rec.numMemOps);
    for (unsigned i = 0; i < TraceRecord::MAX_MEM_OPS; ++i) {
        e.u8(rec.memOps[i].isStore);
        e.u32(rec.memOps[i].addr);
        e.u8(rec.memOps[i].size);
        e.u32(rec.memOps[i].data);
    }
    e.u8(rec.numFregWrites);
    e.u8(uint8_t(rec.fregWrite.reg));
    uint32_t raw = 0;
    std::memcpy(&raw, &rec.fregWrite.value, 4);
    e.u32(raw);
    return e.len;
}

TraceRecord
decodeRecord(const uint8_t *buf)
{
    Decoder d{buf};
    TraceRecord rec;
    rec.pc = d.u32();
    rec.nextPc = d.u32();
    rec.length = d.u8();
    rec.taken = d.u8();
    rec.wroteFlags = d.u8();
    rec.flagsAfter = d.u8();

    x86::Inst &in = rec.inst;
    in.mnem = static_cast<x86::Mnem>(d.u8());
    in.form = static_cast<x86::Form>(d.u8());
    in.cc = static_cast<x86::Cond>(d.u8());
    in.reg1 = static_cast<x86::Reg>(d.u8());
    in.reg2 = static_cast<x86::Reg>(d.u8());
    in.freg1 = static_cast<x86::FReg>(d.u8());
    in.freg2 = static_cast<x86::FReg>(d.u8());
    in.mem.base = static_cast<x86::Reg>(d.u8());
    in.mem.index = static_cast<x86::Reg>(d.u8());
    in.mem.scale = d.u8();
    in.mem.disp = int32_t(d.u32());
    in.imm = int64_t(d.u64());
    in.target = d.u32();
    in.opSize = d.u8();

    rec.numRegWrites = d.u8();
    for (unsigned i = 0; i < TraceRecord::MAX_REG_WRITES; ++i) {
        rec.regWrites[i].reg = static_cast<x86::Reg>(d.u8());
        rec.regWrites[i].value = d.u32();
    }
    rec.numMemOps = d.u8();
    for (unsigned i = 0; i < TraceRecord::MAX_MEM_OPS; ++i) {
        rec.memOps[i].isStore = d.u8();
        rec.memOps[i].addr = d.u32();
        rec.memOps[i].size = d.u8();
        rec.memOps[i].data = d.u32();
    }
    rec.numFregWrites = d.u8();
    rec.fregWrite.reg = static_cast<x86::FReg>(d.u8());
    const uint32_t raw = d.u32();
    std::memcpy(&rec.fregWrite.value, &raw, 4);
    return rec;
}

size_t
recordWireBytes()
{
    static const size_t size = [] {
        uint8_t buf[MAX_RECORD_BYTES];
        return encodeRecord(TraceRecord{}, buf);
    }();
    return size;
}

uint64_t
streamDigest(TraceSource &src, uint64_t max_records)
{
    uint8_t buf[MAX_RECORD_BYTES];
    uint64_t h = 14695981039346656037ULL;
    uint64_t n = 0;
    while (!src.done() && (max_records == 0 || n < max_records)) {
        const size_t len = encodeRecord(*src.peek(), buf);
        for (size_t i = 0; i < len; ++i) {
            h ^= buf[i];
            h *= 1099511628211ULL;
        }
        src.advance();
        ++n;
    }
    return h;
}

// --------------------------------------------------------------------
// Compact v4 record codec
// --------------------------------------------------------------------

namespace {

uint32_t
floatBits(float value)
{
    uint32_t bits;
    std::memcpy(&bits, &value, 4);
    return bits;
}

/** Zigzag-map a wrapped 32-bit delta so small |delta| is small. */
uint32_t
zigzag(uint32_t delta)
{
    return (delta << 1) ^ uint32_t(int32_t(delta) >> 31);
}

uint32_t
unzigzag(uint32_t v)
{
    return (v >> 1) ^ (0u - (v & 1));
}

void
putVarint(uint8_t *&p, uint32_t v)
{
    while (v >= 0x80) {
        *p++ = uint8_t(v | 0x80);
        v >>= 7;
    }
    *p++ = uint8_t(v);
}

/** LEB128, at most five bytes (a fifth continuation bit is ignored). */
uint32_t
getVarint(const uint8_t *&p)
{
    uint32_t v = *p++;
    if (v < 0x80)
        return v;
    v &= 0x7f;
    for (unsigned shift = 7;; shift += 7) {
        const uint32_t b = *p++;
        v |= (b & 0x7f) << shift;
        if (b < 0x80 || shift == 28)
            return v;
    }
}

/** The address slot of (@p static_idx, @p slot) and its delta base. */
DeltaState::AddrSlot &
addrSlot(DeltaState &st, uint32_t static_idx, unsigned slot,
         uint32_t &base)
{
    DeltaState::AddrSlot &s =
        st.slots[size_t(static_idx) * TraceRecord::MAX_MEM_OPS + slot];
    base = s.epoch == st.epoch ? s.addr : st.lastAddr;
    return s;
}

/** Delta base of a memory operand's data: a store's source register
 *  (usually what it stores), zero for a load. */
uint32_t
dataBase(const DeltaState &st, const TraceRecord &rec,
         const x86::MemOp &m)
{
    return m.isStore ? st.regs[uint8_t(rec.inst.reg2) & 7] : 0;
}

} // anonymous namespace

TraceRecord
staticPart(const TraceRecord &rec)
{
    TraceRecord s = rec;
    s.nextPc = 0;
    s.taken = false;
    s.wroteFlags = false;
    s.flagsAfter = 0;
    for (x86::RegWrite &w : s.regWrites)
        w.value = 0;
    for (x86::MemOp &m : s.memOps) {
        m.addr = 0;
        m.data = 0;
    }
    s.fregWrite.value = 0.0f;
    return s;
}

bool
compactable(const TraceRecord &rec)
{
    for (unsigned i = rec.numRegWrites; i < TraceRecord::MAX_REG_WRITES;
         ++i)
        if (rec.regWrites[i].value)
            return false;
    for (unsigned i = rec.numMemOps; i < TraceRecord::MAX_MEM_OPS; ++i)
        if (rec.memOps[i].addr || rec.memOps[i].data)
            return false;
    return rec.numFregWrites || floatBits(rec.fregWrite.value) == 0;
}

void
StaticTable::link()
{
    std::unordered_map<uint32_t, uint32_t> lowest;
    for (uint32_t i = 0; i < entries.size(); ++i)
        lowest.emplace(entries[i].pc, i);
    auto at = [&lowest](uint32_t pc) {
        const auto it = lowest.find(pc);
        return it == lowest.end() ? NO_STATIC : it->second;
    };
    fallThrough.resize(entries.size());
    target.resize(entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
        const TraceRecord &e = entries[i];
        fallThrough[i] = at(e.pc + e.length);
        target[i] =
            e.inst.form == x86::Form::REL ? at(e.inst.target) : NO_STATIC;
    }
}

void
DeltaState::startChunk(size_t statics)
{
    std::fill(std::begin(regs), std::end(regs), 0u);
    lastAddr = 0;
    flagsAfter = 0;
    slots.resize(statics * TraceRecord::MAX_MEM_OPS);
    // Stale slots are told apart by epoch, so a chunk start costs
    // nothing per static entry; only a wrapped stamp clears them.
    if (++epoch == 0) {
        std::fill(slots.begin(), slots.end(), AddrSlot{});
        epoch = 1;
    }
}

size_t
encodeCompact(const TraceRecord &rec, uint32_t static_idx,
              uint32_t implied, DeltaState &st, uint8_t *out)
{
    uint8_t *p = out;
    if (static_idx == NO_STATIC) {
        *p++ = FLAG_VERBATIM;
        return 1 + encodeRecord(rec, p);
    }
    const unsigned regs =
        std::min<unsigned>(rec.numRegWrites, TraceRecord::MAX_REG_WRITES);
    const unsigned mems =
        std::min<unsigned>(rec.numMemOps, TraceRecord::MAX_MEM_OPS);

    uint8_t flags = 0;
    if (rec.taken)
        flags |= FLAG_TAKEN;
    if (rec.wroteFlags)
        flags |= FLAG_WROTE_FLAGS;
    if (rec.nextPc != impliedNextPc(rec))
        flags |= FLAG_NEXT_PC;
    if (rec.flagsAfter != st.flagsAfter)
        flags |= FLAG_FLAGS_AFTER;
    if (static_idx != implied)
        flags |= FLAG_STATIC;
    if (regs && mems && rec.regWrites[0].value == rec.memOps[0].data)
        flags |= FLAG_REG_IS_DATA;
    *p++ = flags;
    if (flags & FLAG_STATIC)
        putVarint(p, static_idx);
    if (flags & FLAG_NEXT_PC)
        putVarint(p, zigzag(rec.nextPc - rec.pc));
    if (flags & FLAG_FLAGS_AFTER) {
        *p++ = rec.flagsAfter;
        st.flagsAfter = rec.flagsAfter;
    }

    if (mems && st.slots.size() <=
                    size_t(static_idx) * TraceRecord::MAX_MEM_OPS)
        st.slots.resize(size_t(static_idx + 1) *
                        TraceRecord::MAX_MEM_OPS);
    for (unsigned i = 0; i < mems; ++i) {
        const x86::MemOp &m = rec.memOps[i];
        uint32_t base;
        DeltaState::AddrSlot &slot = addrSlot(st, static_idx, i, base);
        putVarint(p, zigzag(m.addr - base));
        putVarint(p, zigzag(m.data - dataBase(st, rec, m)));
        slot = {st.epoch, m.addr};
        st.lastAddr = m.addr;
    }
    for (unsigned i = 0; i < regs; ++i) {
        uint32_t &last = st.regs[uint8_t(rec.regWrites[i].reg) & 7];
        if (i > 0 || !(flags & FLAG_REG_IS_DATA))
            putVarint(p, zigzag(rec.regWrites[i].value - last));
        last = rec.regWrites[i].value;
    }
    if (rec.numFregWrites) {
        store32(p, floatBits(rec.fregWrite.value));
        p += 4;
    }
    return size_t(p - out);
}

const char *
decodeCompactChunk(const uint8_t *buf, size_t len, uint32_t records,
                   const StaticTable &statics, DeltaState &st,
                   TraceRecord *out, uint32_t &bad_record)
{
    st.startChunk(statics.entries.size());
    const uint8_t *p = buf;
    const uint8_t *const end = buf + len;
    uint32_t implied = NO_STATIC;
    for (uint32_t r = 0; r < records; ++r) {
        bad_record = r;
        if (p >= end)
            return "payload ends before its last record";
        const uint8_t flags = *p++;
        if (flags & ~FLAG_KNOWN)
            return "record has reserved flag bits set";
        TraceRecord &rec = out[r];
        if (flags & FLAG_VERBATIM) {
            if (flags != FLAG_VERBATIM)
                return "verbatim record carries other flags";
            rec = decodeRecord(p);
            p += recordWireBytes();
            implied = NO_STATIC;
        } else {
            const uint32_t idx =
                flags & FLAG_STATIC ? getVarint(p) : implied;
            if (idx >= statics.entries.size())
                return idx == NO_STATIC ? "static index missing"
                                        : "static index out of range";
            rec = statics.entries[idx];
            rec.taken = flags & FLAG_TAKEN;
            rec.wroteFlags = flags & FLAG_WROTE_FLAGS;
            if (flags & FLAG_NEXT_PC) {
                rec.nextPc = rec.pc + unzigzag(getVarint(p));
                implied = NO_STATIC;
            } else {
                rec.nextPc = impliedNextPc(rec);
                implied = statics.successor(idx, rec.taken);
            }
            if (flags & FLAG_FLAGS_AFTER)
                st.flagsAfter = *p++;
            rec.flagsAfter = st.flagsAfter;

            const unsigned mems = std::min<unsigned>(
                rec.numMemOps, TraceRecord::MAX_MEM_OPS);
            for (unsigned i = 0; i < mems; ++i) {
                x86::MemOp &m = rec.memOps[i];
                uint32_t base;
                DeltaState::AddrSlot &slot = addrSlot(st, idx, i, base);
                m.addr = base + unzigzag(getVarint(p));
                m.data = dataBase(st, rec, m) + unzigzag(getVarint(p));
                slot = {st.epoch, m.addr};
                st.lastAddr = m.addr;
            }
            const unsigned regs = std::min<unsigned>(
                rec.numRegWrites, TraceRecord::MAX_REG_WRITES);
            for (unsigned i = 0; i < regs; ++i) {
                uint32_t &last =
                    st.regs[uint8_t(rec.regWrites[i].reg) & 7];
                last = i == 0 && (flags & FLAG_REG_IS_DATA)
                           ? rec.memOps[0].data
                           : last + unzigzag(getVarint(p));
                rec.regWrites[i].value = last;
            }
            if (rec.numFregWrites) {
                const uint32_t bits = load32(p);
                p += 4;
                std::memcpy(&rec.fregWrite.value, &bits, 4);
            }
        }
        if (p > end)
            return "record overruns the payload";
    }
    if (p != end) {
        bad_record = records;
        return "payload has bytes past its last record";
    }
    return nullptr;
}

} // namespace replay::trace::wire
