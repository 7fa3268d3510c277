/**
 * @file
 * Shared on-disk wire codecs for trace containers (v2 and v4).
 *
 * Two record encodings live here:
 *
 *   - the *canonical* encoding (encodeRecord/decodeRecord): every
 *     field written explicitly and little-endian via fixed-width
 *     integers, so files are portable across compilers (no struct
 *     memcpy).  It is the v2 record format, the digest encoding
 *     behind streamDigest() and the corpus manifests, and the form of
 *     each v4 static-table entry and verbatim record;
 *   - the *compact* v4 encoding (encodeCompact/decodeCompactChunk):
 *     each record names an interned static instruction and carries
 *     only its per-instance fields, delta-coded against a per-chunk
 *     DeltaState.
 *
 * Plus the two checksum primitives the containers build on:
 *
 *   - fnv1a32()      — byte-wise FNV-1a.  The v2 per-record guard and
 *                      every header/index checksum; byte-wise because
 *                      the checksummed spans are small and the value
 *                      is part of the frozen v2 format.
 *   - chunkChecksum()— word-at-a-time FNV-1a64 folded to 32 bits.  The
 *                      v4 per-chunk and static-table guard: 8 bytes
 *                      per multiply.
 *
 * The load/store helpers compile to single unaligned moves on
 * little-endian hosts and fall back to byte composition elsewhere, so
 * the decode hot loop is not serialized on byte-at-a-time shifts.
 */

#ifndef REPLAY_TRACE_CHUNK_HH
#define REPLAY_TRACE_CHUNK_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "trace/record.hh"

namespace replay::trace::wire {

inline constexpr bool kLittleEndian =
    std::endian::native == std::endian::little;

inline uint16_t
load16(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint16_t v;
        std::memcpy(&v, p, 2);
        return v;
    } else {
        return uint16_t(p[0] | (uint16_t(p[1]) << 8));
    }
}

inline uint32_t
load32(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint32_t v;
        std::memcpy(&v, p, 4);
        return v;
    } else {
        return uint32_t(load16(p)) | (uint32_t(load16(p + 2)) << 16);
    }
}

inline uint64_t
load64(const uint8_t *p)
{
    if constexpr (kLittleEndian) {
        uint64_t v;
        std::memcpy(&v, p, 8);
        return v;
    } else {
        return uint64_t(load32(p)) | (uint64_t(load32(p + 4)) << 32);
    }
}

inline void
store16(uint8_t *p, uint16_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 2);
    } else {
        p[0] = uint8_t(v);
        p[1] = uint8_t(v >> 8);
    }
}

inline void
store32(uint8_t *p, uint32_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 4);
    } else {
        store16(p, uint16_t(v));
        store16(p + 2, uint16_t(v >> 16));
    }
}

inline void
store64(uint8_t *p, uint64_t v)
{
    if constexpr (kLittleEndian) {
        std::memcpy(p, &v, 8);
    } else {
        store32(p, uint32_t(v));
        store32(p + 4, uint32_t(v >> 32));
    }
}

/** Little-endian field writer over a caller-provided buffer. */
struct Encoder
{
    uint8_t *buf;
    size_t len = 0;

    void
    u8(uint8_t v)
    {
        buf[len++] = v;
    }
    void
    u16(uint16_t v)
    {
        store16(buf + len, v);
        len += 2;
    }
    void
    u32(uint32_t v)
    {
        store32(buf + len, v);
        len += 4;
    }
    void
    u64(uint64_t v)
    {
        store64(buf + len, v);
        len += 8;
    }
};

/** Little-endian field reader. */
struct Decoder
{
    const uint8_t *buf;
    size_t pos = 0;

    uint8_t
    u8()
    {
        return buf[pos++];
    }
    uint16_t
    u16()
    {
        const uint16_t v = load16(buf + pos);
        pos += 2;
        return v;
    }
    uint32_t
    u32()
    {
        const uint32_t v = load32(buf + pos);
        pos += 4;
        return v;
    }
    uint64_t
    u64()
    {
        const uint64_t v = load64(buf + pos);
        pos += 8;
        return v;
    }
};

/** Byte-wise FNV-1a32 — the frozen v2 per-record/header checksum. */
inline uint32_t
fnv1a32(const uint8_t *buf, size_t len)
{
    uint32_t h = 0x811c9dc5u;
    for (size_t i = 0; i < len; ++i) {
        h ^= buf[i];
        h *= 0x01000193u;
    }
    return h;
}

/**
 * Word-at-a-time FNV-1a64 folded to 32 bits — the v4 chunk and
 * static-table guard.  Mixes 8 input bytes per multiply
 * (alignment-safe via load64), with a byte-wise tail; a final
 * avalanche step spreads the length in.
 */
inline uint32_t
chunkChecksum(const uint8_t *buf, size_t len)
{
    uint64_t h = 14695981039346656037ULL;
    size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        h ^= load64(buf + i);
        h *= 1099511628211ULL;
    }
    uint64_t tail = 0;
    for (unsigned shift = 0; i < len; ++i, shift += 8)
        tail |= uint64_t(buf[i]) << shift;
    h ^= tail;
    h *= 1099511628211ULL;
    h ^= uint64_t(len);
    h *= 1099511628211ULL;
    return uint32_t(h) ^ uint32_t(h >> 32);
}

/** Upper bound on one encoded record (compile-time buffer sizing). */
constexpr size_t MAX_RECORD_BYTES = 128;

/**
 * Encode @p rec canonically into @p out (>= MAX_RECORD_BYTES); returns
 * the encoded length.  Every record encodes to the same length — see
 * recordWireBytes().
 */
size_t encodeRecord(const TraceRecord &rec, uint8_t *out);

/** Decode one record from @p buf (recordWireBytes() bytes). */
TraceRecord decodeRecord(const uint8_t *buf);

/** Fixed encoded payload size of one record. */
size_t recordWireBytes();

/**
 * FNV-1a64 over the canonical record encoding — the container-
 * independent identity of a record stream.  A v2 file, its v4
 * conversion, and the live executor all digest identically, which is
 * what lets the corpus manifest pin artifacts across formats.
 */
uint64_t streamDigest(TraceSource &src, uint64_t max_records = 0);

// --------------------------------------------------------------------
// Compact v4 record codec
// --------------------------------------------------------------------

/**
 * Flag byte, the first byte of every compact record.  Bits outside
 * FLAG_KNOWN are reserved and rejected by the decoder.
 */
constexpr uint8_t FLAG_TAKEN = 0x01;
constexpr uint8_t FLAG_WROTE_FLAGS = 0x02;
constexpr uint8_t FLAG_NEXT_PC = 0x04;     ///< explicit nextPc follows
constexpr uint8_t FLAG_FLAGS_AFTER = 0x08; ///< flagsAfter byte follows
constexpr uint8_t FLAG_STATIC = 0x10;      ///< explicit static index
constexpr uint8_t FLAG_REG_IS_DATA = 0x20; ///< regWrites[0] = memOps[0].data
constexpr uint8_t FLAG_VERBATIM = 0x80;    ///< canonical record follows
constexpr uint8_t FLAG_KNOWN = FLAG_TAKEN | FLAG_WROTE_FLAGS |
                               FLAG_NEXT_PC | FLAG_FLAGS_AFTER |
                               FLAG_STATIC | FLAG_REG_IS_DATA |
                               FLAG_VERBATIM;

/** Upper bound on one compact record (a verbatim escape). */
constexpr size_t MAX_COMPACT_BYTES = 1 + MAX_RECORD_BYTES;

/**
 * Readable bytes decodeCompactChunk() may touch past the payload end:
 * the decoder bounds-checks once per record, not per field, so the
 * buffer must be padded by this much.
 */
constexpr size_t COMPACT_PAD = MAX_COMPACT_BYTES;

/** "No static entry": a verbatim record, or nothing implied. */
constexpr uint32_t NO_STATIC = ~uint32_t(0);

/**
 * The static part of @p rec: the record with every per-instance field
 * (nextPc, taken, wroteFlags, flagsAfter, register values, memory
 * addresses and data, the FP value) zeroed.  What is left — pc,
 * length, Inst, and the side-effect shape — keys the static table.
 */
TraceRecord staticPart(const TraceRecord &rec);

/**
 * True when the compact encoding can carry @p rec: every side-effect
 * slot past its count holds zero values.  Anything else is stored
 * verbatim, so any record round-trips bit for bit.
 */
bool compactable(const TraceRecord &rec);

/** nextPc a compact record implies when FLAG_NEXT_PC is clear. */
inline uint32_t
impliedNextPc(const TraceRecord &rec)
{
    return rec.taken && rec.inst.form == x86::Form::REL
               ? rec.inst.target
               : rec.pc + rec.length;
}

/**
 * The static table as the decoder uses it: the entries, plus for each
 * entry the lowest-numbered entry at its fall-through pc and at its
 * direct target (NO_STATIC if none).  A record whose predecessor's
 * nextPc was implied names its static entry through these links, so
 * straight-line and direct-branch code stores no static index.
 */
struct StaticTable
{
    std::vector<TraceRecord> entries;
    std::vector<uint32_t> fallThrough;
    std::vector<uint32_t> target;

    /** Fill fallThrough/target from entries. */
    void link();

    /** The entry a record at @p idx implies for its successor. */
    uint32_t
    successor(uint32_t idx, bool taken) const
    {
        return taken && entries[idx].inst.form == x86::Form::REL
                   ? target[idx]
                   : fallThrough[idx];
    }
};

/**
 * Delta-coding state.  Both sides call startChunk() at every chunk
 * start, so each chunk decodes on its own and seeks stay
 * chunk-granular.
 */
struct DeltaState
{
    /** Last address of one (static instruction, memory slot). */
    struct AddrSlot
    {
        uint32_t epoch = 0;     ///< chunk that wrote it (0 = never)
        uint32_t addr = 0;
    };

    uint32_t regs[x86::NUM_GPRS] = {};  ///< last value per register
    uint32_t lastAddr = 0;              ///< last address of any slot
    uint8_t flagsAfter = 0;             ///< previous record's flags
    uint32_t epoch = 0;                 ///< current chunk's stamp
    std::vector<AddrSlot> slots;        ///< [static * MAX_MEM_OPS + i]

    /** Reset for a new chunk over @p statics static entries. */
    void startChunk(size_t statics);
};

/**
 * Encode @p rec as static entry @p static_idx (NO_STATIC: verbatim)
 * into @p out (>= MAX_COMPACT_BYTES); returns the encoded length.
 * @p implied is the entry the previous record implies (see
 * StaticTable); the index is stored only when it differs.
 */
size_t encodeCompact(const TraceRecord &rec, uint32_t static_idx,
                     uint32_t implied, DeltaState &state, uint8_t *out);

/**
 * Decode a chunk's @p records compact records from @p buf (@p len
 * bytes, followed by COMPACT_PAD readable bytes) into @p out, against
 * @p statics.  Resets @p state first.  Returns nullptr on success,
 * else why the payload is malformed (reserved flag bits, a missing or
 * out-of-range static index, an overrun or trailing bytes) with
 * @p bad_record set to the offending record.
 */
const char *decodeCompactChunk(const uint8_t *buf, size_t len,
                               uint32_t records,
                               const StaticTable &statics,
                               DeltaState &state, TraceRecord *out,
                               uint32_t &bad_record);

} // namespace replay::trace::wire

#endif // REPLAY_TRACE_CHUNK_HH
