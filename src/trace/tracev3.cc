#include "trace/tracev3.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "util/logging.hh"
#include "util/sync.hh"
#include "x86/executor.hh"

#if defined(REPLAY_HAVE_ZLIB)
#include <zlib.h>
#endif

namespace replay::trace {

// --------------------------------------------------------------------
// Errors and quarantine
// --------------------------------------------------------------------

std::string
TraceError::describe() const
{
    std::string out = traceErrorKindName(kind);
    out += ": ";
    out += message;
    if (!path.empty()) {
        out += " [";
        out += path;
        out += " @byte " + std::to_string(byteOffset);
        if (chunkIndex >= 0)
            out += " chunk " + std::to_string(chunkIndex);
        out += "]";
    }
    return out;
}

const char *
traceErrorKindName(TraceError::Kind kind)
{
    switch (kind) {
      case TraceError::Kind::NONE:            return "none";
      case TraceError::Kind::OPEN_FAILED:     return "open_failed";
      case TraceError::Kind::SHORT_HEADER:    return "short_header";
      case TraceError::Kind::BAD_MAGIC:       return "bad_magic";
      case TraceError::Kind::BAD_VERSION:     return "bad_version";
      case TraceError::Kind::BAD_RECORD_SIZE: return "bad_record_size";
      case TraceError::Kind::TRUNCATED:       return "truncated";
      case TraceError::Kind::BAD_CHECKSUM:    return "bad_checksum";
      case TraceError::Kind::WRITE_FAILED:    return "write_failed";
      case TraceError::Kind::FLUSH_FAILED:    return "flush_failed";
      case TraceError::Kind::READ_ERROR:      return "read_error";
      case TraceError::Kind::QUARANTINED:     return "quarantined";
      case TraceError::Kind::BAD_CHUNK:       return "bad_chunk";
      case TraceError::Kind::BAD_INDEX:       return "bad_index";
      case TraceError::Kind::BAD_CODEC:       return "bad_codec";
      case TraceError::Kind::BAD_STATIC:      return "bad_static";
    }
    return "?";
}

namespace {

// Process-wide registry shared by every sweep worker; the mutex ranks
// above the pool/queue locks because workers consult it from inside
// running tasks (with no other lock held, but the rank keeps it
// honest if that ever changes).
sync::Mutex traceQuarantineMutex{"trace_registry",
                                 sync::rank::TRACE_REGISTRY};
std::set<std::string>
    traceQuarantineSet GUARDED_BY(traceQuarantineMutex);

} // anonymous namespace

bool
traceQuarantined(const std::string &path)
{
    sync::LockGuard lock(traceQuarantineMutex);
    return traceQuarantineSet.count(path) != 0;
}

void
quarantineTrace(const std::string &path)
{
    sync::LockGuard lock(traceQuarantineMutex);
    traceQuarantineSet.insert(path);
}

void
clearTraceQuarantine()
{
    sync::LockGuard lock(traceQuarantineMutex);
    traceQuarantineSet.clear();
}

size_t
traceQuarantineSize()
{
    sync::LockGuard lock(traceQuarantineMutex);
    return traceQuarantineSet.size();
}

// --------------------------------------------------------------------
// Codecs
// --------------------------------------------------------------------

const char *
v3CodecName(V3Codec codec)
{
    switch (codec) {
      case V3Codec::RAW:  return "raw";
      case V3Codec::ZLIB: return "zlib";
    }
    return "?";
}

bool
v3ZlibAvailable()
{
#if defined(REPLAY_HAVE_ZLIB)
    return true;
#else
    return false;
#endif
}

V3Codec
V3Options::defaultCodec()
{
    return v3ZlibAvailable() ? V3Codec::ZLIB : V3Codec::RAW;
}

namespace {

using Kind = TraceError::Kind;

/** Serialize the 40-byte header; checksum covers the first 36. */
void
encodeHeader(uint8_t *buf, uint64_t records, V3Codec codec,
             uint32_t chunk_records, uint64_t index_offset)
{
    wire::Encoder e{buf};
    e.u32(v4::MAGIC);
    e.u32(v4::VERSION);
    e.u32(uint32_t(wire::recordWireBytes()));
    e.u64(records);
    e.u32(uint32_t(codec));
    e.u32(chunk_records);
    e.u64(index_offset);
    e.u32(wire::fnv1a32(buf, v4::HDR_OFF_CHECKSUM));
}

/**
 * Inflate @p len stored bytes into @p out: exactly @p raw_len bytes,
 * then COMPACT_PAD zero bytes for the compact decoder.
 */
bool
inflateExact(const uint8_t *in, size_t len, size_t raw_len,
             std::vector<uint8_t> &out)
{
#if defined(REPLAY_HAVE_ZLIB)
    out.resize(raw_len + wire::COMPACT_PAD);
    std::memset(out.data() + raw_len, 0, wire::COMPACT_PAD);
    uLongf dst_len = uLongf(raw_len);
    return uncompress(out.data(), &dst_len, in, uLong(len)) == Z_OK &&
           dst_len == raw_len;
#else
    (void)in, (void)len, (void)raw_len, (void)out;
    return false;
#endif
}

/**
 * Decode the raw static table.  Each entry must be the canonical
 * encoding of a record's static part — every per-instance field zero —
 * so re-encoding it gives back the stored bytes.  Returns the first
 * bad entry, or @p count when all are valid.
 */
uint32_t
decodeStatics(const uint8_t *raw, uint32_t count,
              std::vector<TraceRecord> &out)
{
    const size_t rec_bytes = wire::recordWireBytes();
    uint8_t buf[wire::MAX_RECORD_BYTES];
    out.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
        const uint8_t *entry = raw + size_t(i) * rec_bytes;
        out[i] = wire::decodeRecord(entry);
        wire::encodeRecord(wire::staticPart(out[i]), buf);
        if (std::memcmp(buf, entry, rec_bytes) != 0)
            return i;
    }
    return count;
}

/**
 * Parse and cross-check header, footer, index and static table through
 * @p readAt (absolute offset → buffer; false on I/O failure), filling
 * @p statics.  This is the one structural validator: the reader and
 * the inspector agree on what a well-formed container is because both
 * run it.
 */
V3Info
parseContainer(const std::string &path, uint64_t file_bytes,
               const std::function<bool(uint64_t, size_t, uint8_t *)>
                   &readAt,
               std::vector<TraceRecord> &statics)
{
    V3Info m;
    m.fileBytes = file_bytes;
    auto fail = [&](Kind kind, std::string msg, uint64_t offset,
                    int64_t chunk = -1) {
        m.error = TraceError::at(kind, std::move(msg), path, offset,
                                 chunk);
        return m;
    };
    const std::string file = "trace file '" + path + "'";

    if (file_bytes < v4::HEADER_BYTES)
        return fail(Kind::SHORT_HEADER, file + " has no v4 header", 0);

    uint8_t hdr[v4::HEADER_BYTES];
    if (!readAt(0, sizeof(hdr), hdr))
        return fail(Kind::READ_ERROR,
                    "cannot read v4 header of '" + path + "'", 0);
    wire::Decoder d{hdr};
    const uint32_t magic = d.u32();
    const uint32_t version = d.u32();
    const uint32_t rec_bytes = d.u32();
    const uint64_t records = d.u64();
    const uint32_t codec = d.u32();
    const uint32_t chunk_records = d.u32();
    const uint64_t index_offset = d.u64();
    const uint32_t hdr_sum = d.u32();

    if (magic != v4::MAGIC)
        return fail(Kind::BAD_MAGIC, "'" + path + "' is not a trace file",
                    v4::HDR_OFF_MAGIC);
    if (version != v4::VERSION)
        return fail(Kind::BAD_VERSION,
                    file + " has version " + std::to_string(version) +
                        ", expected 4",
                    v4::HDR_OFF_VERSION);
    if (hdr_sum != wire::fnv1a32(hdr, v4::HDR_OFF_CHECKSUM))
        return fail(Kind::BAD_CHECKSUM,
                    file + " header failed its checksum",
                    v4::HDR_OFF_CHECKSUM);
    if (rec_bytes != wire::recordWireBytes())
        return fail(Kind::BAD_RECORD_SIZE,
                    file + " declares " + std::to_string(rec_bytes) +
                        "-byte records, expected " +
                        std::to_string(wire::recordWireBytes()),
                    v4::HDR_OFF_RECORD_BYTES);
    if (codec > uint32_t(V3Codec::ZLIB))
        return fail(Kind::BAD_CODEC,
                    file + " uses unknown codec " + std::to_string(codec),
                    v4::HDR_OFF_CODEC);
    if (codec == uint32_t(V3Codec::ZLIB) && !v3ZlibAvailable())
        return fail(Kind::BAD_CODEC,
                    file + " is zlib-compressed but this build has no zlib",
                    v4::HDR_OFF_CODEC);

    m.recordBytes = rec_bytes;
    m.recordCount = records;
    m.codec = V3Codec(codec);
    m.chunkRecords = chunk_records;
    m.indexOffset = index_offset;

    // Footer: a file that ends before (or inside) it was cut off
    // mid-write — the chunks may be fine, but without a trustworthy
    // index the container is TRUNCATED.
    if (file_bytes < v4::HEADER_BYTES + v4::FOOTER_BYTES)
        return fail(Kind::TRUNCATED, file + " ends before its footer",
                    file_bytes);
    const uint64_t footer_off = file_bytes - v4::FOOTER_BYTES;
    uint8_t ftr[v4::FOOTER_BYTES];
    if (!readAt(footer_off, sizeof(ftr), ftr))
        return fail(Kind::READ_ERROR,
                    "cannot read v4 footer of '" + path + "'",
                    footer_off);
    wire::Decoder fd{ftr};
    const uint64_t ftr_index_offset = fd.u64();
    const uint32_t chunk_count = fd.u32();
    const uint32_t index_sum = fd.u32();
    const uint32_t static_count = fd.u32();
    const uint32_t static_bytes = fd.u32();
    const uint32_t static_sum = fd.u32();
    fd.u32(); // reserved
    const uint32_t ftr_magic = fd.u32();

    if (ftr_magic != v4::FOOTER_MAGIC)
        return fail(Kind::TRUNCATED,
                    file + " has no footer magic (cut off mid-write?)",
                    file_bytes - 4);
    if (ftr_index_offset != index_offset)
        return fail(Kind::BAD_INDEX,
                    file + " header and footer disagree on the index "
                           "offset (stale index?)",
                    footer_off);
    const uint64_t index_bytes =
        uint64_t(chunk_count) * v4::INDEX_ENTRY_BYTES;
    if (index_offset < v4::HEADER_BYTES + uint64_t(static_bytes) ||
        index_offset + index_bytes + v4::FOOTER_BYTES != file_bytes)
        return fail(Kind::BAD_INDEX,
                    file + " index does not tile the file (offset " +
                        std::to_string(index_offset) + ", " +
                        std::to_string(chunk_count) + " chunks, " +
                        std::to_string(static_bytes) +
                        " static-table bytes, " +
                        std::to_string(file_bytes) + " bytes)",
                    footer_off);

    std::vector<uint8_t> buf(static_cast<size_t>(index_bytes));
    if (index_bytes && !readAt(index_offset, buf.size(), buf.data()))
        return fail(Kind::READ_ERROR,
                    "cannot read v4 index of '" + path + "'",
                    index_offset);
    if (wire::fnv1a32(buf.data(), buf.size()) != index_sum)
        return fail(Kind::BAD_INDEX, file + " index failed its checksum",
                    index_offset);

    // Structural walk: chunks must tile [header, static table) in
    // order and the record ranges must tile [0, recordCount) exactly.
    // A stale index (record count no longer matching) or a
    // duplicated/spliced chunk shows up here before any payload is
    // touched; the size bounds keep a forged entry from sizing a
    // buffer.
    const uint64_t static_off = index_offset - static_bytes;
    m.staticOffset = static_off;
    m.staticCount = static_count;
    m.staticBytes = static_bytes;
    m.chunks.reserve(chunk_count);
    uint64_t next_offset = v4::HEADER_BYTES;
    uint64_t next_record = 0;
    for (uint32_t i = 0; i < chunk_count; ++i) {
        wire::Decoder ed{buf.data() + size_t(i) * v4::INDEX_ENTRY_BYTES};
        v4::IndexEntry c;
        c.offset = ed.u64();
        c.firstRecord = ed.u64();
        c.payloadBytes = ed.u32();
        c.rawBytes = ed.u32();
        c.records = ed.u32();
        c.checksum = ed.u32();
        const bool sized =
            c.records != 0 && c.records <= chunk_records &&
            c.rawBytes <= uint64_t(c.records) * wire::MAX_COMPACT_BYTES &&
            (m.codec != V3Codec::RAW || c.rawBytes == c.payloadBytes);
        if (c.offset != next_offset || c.firstRecord != next_record ||
            !sized)
            return fail(Kind::BAD_INDEX,
                        file + " index entry " + std::to_string(i) +
                            " does not tile the container (offset " +
                            std::to_string(c.offset) +
                            ", first record " +
                            std::to_string(c.firstRecord) + ")",
                        index_offset +
                            uint64_t(i) * v4::INDEX_ENTRY_BYTES,
                        int64_t(i));
        next_offset = c.offset + v4::CHUNK_HEADER_BYTES + c.payloadBytes;
        next_record = c.firstRecord + c.records;
        m.chunks.push_back(c);
    }
    if (next_offset != static_off || next_record != records)
        return fail(Kind::BAD_INDEX,
                    file + " index covers " +
                        std::to_string(next_record) +
                        " records, header claims " +
                        std::to_string(records) + " (stale index?)",
                    index_offset);

    // Static table: every entry is referenced by some record, so a
    // count above the record count is damage, not a big table.
    const size_t table_raw = size_t(static_count) * rec_bytes;
    if (static_count > records ||
        (m.codec == V3Codec::RAW && static_bytes != table_raw))
        return fail(Kind::BAD_STATIC,
                    file + " static table of " +
                        std::to_string(static_count) +
                        " entries does not fit its " +
                        std::to_string(static_bytes) + " bytes",
                    static_off);
    buf.resize(static_bytes + wire::COMPACT_PAD);
    if (static_bytes && !readAt(static_off, static_bytes, buf.data()))
        return fail(Kind::READ_ERROR,
                    "cannot read v4 static table of '" + path + "'",
                    static_off);
    if (wire::chunkChecksum(buf.data(), static_bytes) != static_sum)
        return fail(Kind::BAD_STATIC,
                    file + " static table failed its checksum",
                    static_off);
    const uint8_t *table = buf.data();
    std::vector<uint8_t> inflated;
    if (m.codec == V3Codec::ZLIB && static_count) {
        if (!inflateExact(buf.data(), static_bytes, table_raw, inflated))
            return fail(Kind::BAD_STATIC,
                        file + " static table does not inflate to " +
                            std::to_string(table_raw) + " bytes",
                        static_off);
        table = inflated.data();
    }
    const uint32_t bad = decodeStatics(table, static_count, statics);
    if (bad != static_count)
        return fail(Kind::BAD_STATIC,
                    file + " static table entry " + std::to_string(bad) +
                        " is not a static instruction",
                    static_off);
    return m;
}

/** Buffered positioned read (the reader's and inspector's readAt). */
bool
readFileAt(std::FILE *file, uint64_t offset, size_t len, uint8_t *dst)
{
    return std::fseek(file, long(offset), SEEK_SET) == 0 &&
           std::fread(dst, 1, len, file) == len;
}

/** Size of an open file, or -1. */
long
fileSize(std::FILE *file)
{
    return std::fseek(file, 0, SEEK_END) == 0 ? std::ftell(file) : -1;
}

} // anonymous namespace

// --------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------

void
TraceV3Writer::fail(TraceError::Kind kind, std::string msg)
{
    if (error_.ok())
        error_ = TraceError::at(kind, std::move(msg), path_, fileOffset_);
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceV3Writer::TraceV3Writer(const std::string &path, V3Options opts)
    : path_(path), opts_(opts)
{
    if (opts_.chunkRecords == 0)
        opts_.chunkRecords = 1;
    if (opts_.codec == V3Codec::ZLIB && !v3ZlibAvailable())
        opts_.codec = V3Codec::RAW;
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "' for writing");
        return;
    }
    uint8_t hdr[v4::HEADER_BYTES];
    encodeHeader(hdr, 0, opts_.codec, opts_.chunkRecords, 0);
    if (std::fwrite(hdr, sizeof(hdr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write v4 header to '" + path + "'");
        return;
    }
    fileOffset_ = v4::HEADER_BYTES;
}

TraceV3Writer::~TraceV3Writer()
{
    if (file_)
        close();
}

uint32_t
TraceV3Writer::intern(const TraceRecord &rec)
{
    const size_t rec_bytes = wire::recordWireBytes();
    uint8_t key[wire::MAX_RECORD_BYTES];
    wire::encodeRecord(wire::staticPart(rec), key);
    uint32_t *link =
        &firstByPc_.try_emplace(rec.pc, wire::NO_STATIC).first->second;
    for (; *link != wire::NO_STATIC; link = &nextSamePc_[*link])
        if (std::memcmp(statics_.data() + size_t(*link) * rec_bytes, key,
                        rec_bytes) == 0)
            return *link;
    const uint32_t idx = uint32_t(nextSamePc_.size());
    *link = idx;
    nextSamePc_.push_back(wire::NO_STATIC);
    statics_.insert(statics_.end(), key, key + rec_bytes);
    return idx;
}

void
TraceV3Writer::write(const TraceRecord &rec)
{
    if (!file_)
        return;
    if (pendingRecords_ == 0) {
        delta_.startChunk(nextSamePc_.size());
        followOn_ = false;
    }
    const uint32_t idx =
        wire::compactable(rec) ? intern(rec) : wire::NO_STATIC;
    // The entry the previous record implies: the lowest-numbered one
    // at its nextPc — what the reader's StaticTable links resolve to.
    uint32_t implied = wire::NO_STATIC;
    if (followOn_) {
        const auto it = firstByPc_.find(prevNextPc_);
        if (it != firstByPc_.end())
            implied = it->second;
    }
    const size_t at = raw_.size();
    raw_.resize(at + wire::MAX_COMPACT_BYTES);
    raw_.resize(at + wire::encodeCompact(rec, idx, implied, delta_,
                                         raw_.data() + at));
    followOn_ =
        idx != wire::NO_STATIC && rec.nextPc == wire::impliedNextPc(rec);
    prevNextPc_ = rec.nextPc;
    ++pendingRecords_;
    ++count_;
    if (pendingRecords_ >= opts_.chunkRecords)
        flushChunk();
}

bool
TraceV3Writer::store(const std::vector<uint8_t> &raw,
                     const uint8_t *&payload, uint32_t &payload_bytes)
{
    payload = raw.data();
    payload_bytes = uint32_t(raw.size());
#if defined(REPLAY_HAVE_ZLIB)
    if (opts_.codec == V3Codec::ZLIB) {
        uLongf dst_len = compressBound(uLong(raw.size()));
        zbuf_.resize(dst_len);
        if (compress2(zbuf_.data(), &dst_len, raw.data(),
                      uLong(raw.size()), Z_DEFAULT_COMPRESSION) != Z_OK)
            return false;
        payload = zbuf_.data();
        payload_bytes = uint32_t(dst_len);
    }
#endif
    return true;
}

bool
TraceV3Writer::flushChunk()
{
    if (!file_ || pendingRecords_ == 0)
        return file_ != nullptr;

    const uint8_t *payload = nullptr;
    uint32_t payload_bytes = 0;
    if (!store(raw_, payload, payload_bytes)) {
        fail(TraceError::Kind::WRITE_FAILED,
             "zlib compression failed for chunk " +
                 std::to_string(index_.size()));
        return false;
    }

    v4::IndexEntry entry;
    entry.offset = fileOffset_;
    entry.firstRecord = count_ - pendingRecords_;
    entry.payloadBytes = payload_bytes;
    entry.rawBytes = uint32_t(raw_.size());
    entry.records = pendingRecords_;
    entry.checksum = wire::chunkChecksum(payload, payload_bytes);

    uint8_t hdr[v4::CHUNK_HEADER_BYTES];
    wire::Encoder e{hdr};
    e.u32(v4::CHUNK_MAGIC);
    e.u32(entry.payloadBytes);
    e.u32(entry.rawBytes);
    e.u32(entry.records);
    e.u64(entry.firstRecord);
    e.u32(entry.checksum);

    if (std::fwrite(hdr, sizeof(hdr), 1, file_) != 1 ||
        std::fwrite(payload, payload_bytes, 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "short write of chunk " + std::to_string(index_.size()));
        return false;
    }
    fileOffset_ += v4::CHUNK_HEADER_BYTES + payload_bytes;
    index_.push_back(entry);
    raw_.clear();
    pendingRecords_ = 0;
    return true;
}

TraceError
TraceV3Writer::close()
{
    if (!file_)
        return error_;
    if (!flushChunk())
        return error_;

    // Static table, through the same codec as the chunks.
    const uint32_t static_count = uint32_t(nextSamePc_.size());
    const uint8_t *table = nullptr;
    uint32_t table_bytes = 0;
    if (static_count && !store(statics_, table, table_bytes)) {
        fail(TraceError::Kind::WRITE_FAILED,
             "zlib compression failed for the static table");
        return error_;
    }
    if (table_bytes && std::fwrite(table, table_bytes, 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write v4 static table");
        return error_;
    }
    const uint32_t table_sum = wire::chunkChecksum(table, table_bytes);
    fileOffset_ += table_bytes;

    const uint64_t index_offset = fileOffset_;
    std::vector<uint8_t> index(index_.size() * v4::INDEX_ENTRY_BYTES);
    for (size_t i = 0; i < index_.size(); ++i) {
        wire::Encoder e{index.data() + i * v4::INDEX_ENTRY_BYTES};
        e.u64(index_[i].offset);
        e.u64(index_[i].firstRecord);
        e.u32(index_[i].payloadBytes);
        e.u32(index_[i].rawBytes);
        e.u32(index_[i].records);
        e.u32(index_[i].checksum);
    }
    uint8_t ftr[v4::FOOTER_BYTES];
    wire::Encoder fe{ftr};
    fe.u64(index_offset);
    fe.u32(uint32_t(index_.size()));
    fe.u32(wire::fnv1a32(index.data(), index.size()));
    fe.u32(static_count);
    fe.u32(table_bytes);
    fe.u32(table_sum);
    fe.u32(0);
    fe.u32(v4::FOOTER_MAGIC);

    if ((!index.empty() &&
         std::fwrite(index.data(), index.size(), 1, file_) != 1) ||
        std::fwrite(ftr, sizeof(ftr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write v4 index/footer");
        return error_;
    }

    uint8_t hdr[v4::HEADER_BYTES];
    encodeHeader(hdr, count_, opts_.codec, opts_.chunkRecords,
                 index_offset);
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        std::fwrite(hdr, sizeof(hdr), 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot finalize v4 header");
        return error_;
    }
    if (std::fflush(file_) != 0) {
        fail(TraceError::Kind::FLUSH_FAILED, "cannot flush trace file");
        return error_;
    }
    if (std::fclose(file_) != 0)
        error_ = TraceError::at(TraceError::Kind::FLUSH_FAILED,
                                "cannot close trace file", path_,
                                fileOffset_);
    file_ = nullptr;
    return error_;
}

uint64_t
TraceV3Writer::dumpProgram(const x86::Program &program, uint64_t insts,
                           const std::string &path, V3Options opts)
{
    TraceV3Writer writer(path, opts);
    x86::Executor exec(program);
    for (uint64_t i = 0; i < insts; ++i)
        writer.write(TraceRecord::fromStep(exec.step()));
    const TraceError err = writer.close();
    fatal_if(!err.ok(), "dumping v4 trace to '%s': %s", path.c_str(),
             err.describe().c_str());
    return insts;
}

// --------------------------------------------------------------------
// Source
// --------------------------------------------------------------------

void
TraceV3Source::fail(TraceError::Kind kind, std::string msg,
                    uint64_t offset, int64_t chunk)
{
    if (error_.ok())
        error_ = TraceError::at(kind, std::move(msg), path_, offset,
                                chunk);
    // End the stream at the last fully-validated record: whatever is
    // already decoded in the window stays deliverable, nothing past it
    // will be loaded.
    uint64_t loaded = consumed_;
    for (const DecodedChunk &c : window_)
        loaded = std::max(loaded, c.firstRecord + c.recs.size());
    effTotal_ = std::min(effTotal_, loaded);
    nextChunk_ = index_.size();
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceV3Source::TraceV3Source(const std::string &path, Options opts)
    : path_(path), opts_(opts)
{
    if (traceQuarantined(path)) {
        fail(TraceError::Kind::QUARANTINED,
             "trace file '" + path +
                 "' is quarantined after persistent read errors",
             0);
        return;
    }
    if (!openAndValidate(path))
        return;
    effTotal_ = total_;
    if (opts_.limitRecords && opts_.limitRecords < effTotal_)
        effTotal_ = opts_.limitRecords;
}

TraceV3Source::~TraceV3Source()
{
    if (file_)
        std::fclose(file_);
}

bool
TraceV3Source::openAndValidate(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "'", 0);
        return false;
    }
    const long end = fileSize(file_);
    if (end < 0) {
        fail(TraceError::Kind::READ_ERROR,
             "cannot size trace file '" + path + "'", 0);
        return false;
    }
    auto readAt = [this](uint64_t offset, size_t len, uint8_t *dst) {
        return readFileAt(file_, offset, len, dst);
    };
    V3Info m =
        parseContainer(path, uint64_t(end), readAt, statics_.entries);
    if (!m.ok()) {
        const TraceError err = m.error;
        fail(err.kind, err.message, err.byteOffset, err.chunkIndex);
        return false;
    }
    statics_.link();
    total_ = m.recordCount;
    codec_ = m.codec;
    index_ = std::move(m.chunks);
    return true;
}

const uint8_t *
TraceV3Source::loadBytes(uint64_t offset, size_t len, size_t chunk)
{
    unsigned attempts = 0;
    for (;;) {
        // The injected fault behaves exactly like a read that came
        // back short with the stream in error: retry with backoff,
        // then quarantine.
        const bool injected = ioInject_ && ioInject_();
        if (!injected) {
            if (!file_)
                return nullptr;
            ioBuf_.resize(len + wire::COMPACT_PAD);
            if (readFileAt(file_, offset, len, ioBuf_.data())) {
                std::memset(ioBuf_.data() + len, 0, wire::COMPACT_PAD);
                return ioBuf_.data();
            }
            if (std::feof(file_) && !std::ferror(file_)) {
                fail(TraceError::Kind::TRUNCATED,
                     "trace file '" + path_ + "' ends inside chunk " +
                         std::to_string(chunk),
                     offset, int64_t(chunk));
                return nullptr;
            }
        }
        if (attempts < MAX_READ_RETRIES) {
            ++attempts;
            ++ioRetries_;
            std::this_thread::sleep_for(
                std::chrono::microseconds(50u << attempts));
            if (file_)
                std::clearerr(file_);
            continue;
        }
        quarantineTrace(path_);
        fail(TraceError::Kind::READ_ERROR,
             "trace file '" + path_ + "' read error in chunk " +
                 std::to_string(chunk) + " (after " +
                 std::to_string(attempts) + " retries)",
             offset, int64_t(chunk));
        return nullptr;
    }
}

bool
TraceV3Source::loadNextChunk()
{
    if (nextChunk_ >= index_.size())
        return false;
    const size_t ci = nextChunk_;
    const v4::IndexEntry entry = index_[ci];
    const std::string where =
        "trace file '" + path_ + "' chunk " + std::to_string(ci);

    // Header and payload in one read; the index already sized both.
    const uint8_t *hdr = loadBytes(
        entry.offset, v4::CHUNK_HEADER_BYTES + entry.payloadBytes, ci);
    if (!hdr)
        return false;
    wire::Decoder d{hdr};
    const uint32_t magic = d.u32();
    const uint32_t payload_bytes = d.u32();
    const uint32_t raw_bytes = d.u32();
    const uint32_t records = d.u32();
    const uint64_t first_record = d.u64();
    const uint32_t sum = d.u32();

    if (magic != v4::CHUNK_MAGIC) {
        fail(TraceError::Kind::BAD_CHUNK, where + " has no chunk magic",
             entry.offset, int64_t(ci));
        return false;
    }
    // The chunk header must agree with the (already FNV-verified)
    // index entry.  A duplicated or spliced chunk carries the wrong
    // firstRecord; a stale one the wrong sizes or checksum.
    if (payload_bytes != entry.payloadBytes ||
        raw_bytes != entry.rawBytes || records != entry.records ||
        first_record != entry.firstRecord || sum != entry.checksum) {
        fail(TraceError::Kind::BAD_CHUNK,
             where + " disagrees with the index (duplicated or stale "
                     "chunk?)",
             entry.offset, int64_t(ci));
        return false;
    }

    const uint8_t *payload = hdr + v4::CHUNK_HEADER_BYTES;
    const uint64_t payload_off = entry.offset + v4::CHUNK_HEADER_BYTES;
    if (wire::chunkChecksum(payload, payload_bytes) != sum) {
        fail(TraceError::Kind::BAD_CHECKSUM,
             where + " payload failed its checksum", payload_off,
             int64_t(ci));
        return false;
    }

    // A RAW payload is decoded in place: loadBytes padded it.
    const uint8_t *raw = payload;
    if (codec_ == V3Codec::ZLIB) {
        if (!inflateExact(payload, payload_bytes, raw_bytes, rawBuf_)) {
            fail(TraceError::Kind::BAD_CHUNK,
                 where + " does not inflate to " +
                     std::to_string(raw_bytes) + " bytes",
                 entry.offset, int64_t(ci));
            return false;
        }
        raw = rawBuf_.data();
    }

    DecodedChunk dc;
    dc.firstRecord = first_record;
    if (!pool_.empty()) {
        dc.recs = std::move(pool_.back());
        pool_.pop_back();
    }
    dc.recs.resize(records);
    uint32_t bad = 0;
    if (const char *why =
            wire::decodeCompactChunk(raw, raw_bytes, records, statics_,
                                     delta_, dc.recs.data(), bad)) {
        pool_.push_back(std::move(dc.recs));
        fail(TraceError::Kind::BAD_CHUNK,
             where + " record " + std::to_string(bad) + ": " + why,
             payload_off, int64_t(ci));
        return false;
    }
    window_.push_back(std::move(dc));
    nextChunk_ = ci + 1;
    return true;
}

const TraceRecord *
TraceV3Source::locate(uint64_t rec)
{
    for (;;) {
        if (rec >= effTotal_)
            return nullptr;
        for (DecodedChunk &c : window_) {
            if (rec >= c.firstRecord &&
                rec < c.firstRecord + c.recs.size())
                return &c.recs[rec - c.firstRecord];
        }
        if (!loadNextChunk())
            return nullptr; // error clamped effTotal_, or index done
    }
}

/**
 * Point the cursor at record consumed_ once the previous chunk's run
 * is used up: recycle the chunks wholly behind it, then take the front
 * window chunk (loading it if no deep peek already has).  False at the
 * end of the stream.
 */
bool
TraceV3Source::enterChunk()
{
    size_t behind = 0;
    while (behind < window_.size() &&
           window_[behind].firstRecord + window_[behind].recs.size() <=
               consumed_)
        pool_.push_back(std::move(window_[behind++].recs));
    window_.erase(window_.begin(), window_.begin() + behind);
    cur_ = curEnd_ = nullptr;
    if (consumed_ >= effTotal_ || (window_.empty() && !loadNextChunk()))
        return false;
    const DecodedChunk &c = window_.front();
    const uint64_t end =
        std::min<uint64_t>(effTotal_, c.firstRecord + c.recs.size());
    cur_ = c.recs.data() + (consumed_ - c.firstRecord);
    curEnd_ = c.recs.data() + (end - c.firstRecord);
    return true;
}

const TraceRecord *
TraceV3Source::peek(unsigned ahead)
{
    panic_if(ahead >= LOOKAHEAD, "peek(%u) beyond lookahead", ahead);
    if (ahead < uint64_t(curEnd_ - cur_))
        return cur_ + ahead;
    // Past the cursor's chunk (or before the cursor entered one).
    return locate(consumed_ + ahead);
}

void
TraceV3Source::advance()
{
    if (cur_ == curEnd_ && !enterChunk())
        panic("advance past end of v4 trace");
    ++cur_;
    ++consumed_;
}

bool
TraceV3Source::done()
{
    return cur_ == curEnd_ && !enterChunk();
}

bool
TraceV3Source::seekToRecord(uint64_t n)
{
    if (!error_.ok())
        return false;
    const uint64_t target = std::min(n, effTotal_);

    // Drop the decoded window and point the loader at the chunk owning
    // the target; chunks before it are never touched.
    for (DecodedChunk &c : window_)
        pool_.push_back(std::move(c.recs));
    window_.clear();
    size_t lo = 0, hi = index_.size();
    while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (index_[mid].firstRecord + index_[mid].records <= target)
            lo = mid + 1;
        else
            hi = mid;
    }
    nextChunk_ = lo;
    consumed_ = target;
    base_ = target;
    cur_ = curEnd_ = nullptr;
    return true;
}

// --------------------------------------------------------------------
// Inspection
// --------------------------------------------------------------------

uint64_t
V3Info::payloadBytes() const
{
    uint64_t sum = 0;
    for (const Chunk &c : chunks)
        sum += c.payloadBytes;
    return sum;
}

uint64_t
V3Info::rawBytes() const
{
    uint64_t sum = 0;
    for (const Chunk &c : chunks)
        sum += c.rawBytes;
    return sum;
}

V3Info
inspectV3(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file) {
        V3Info info;
        info.error = TraceError::at(TraceError::Kind::OPEN_FAILED,
                                    "cannot open trace file '" + path +
                                        "'",
                                    path, 0);
        return info;
    }
    const long end = fileSize(file);
    auto readAt = [file](uint64_t offset, size_t len, uint8_t *dst) {
        return readFileAt(file, offset, len, dst);
    };
    std::vector<TraceRecord> statics;
    V3Info info = parseContainer(path, end > 0 ? uint64_t(end) : 0,
                                 readAt, statics);
    std::fclose(file);
    return info;
}

} // namespace replay::trace
