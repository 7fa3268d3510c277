/**
 * @file
 * The trace file container, format version 4.
 *
 * The paper's simulator read hardware trace files: raw instruction
 * data plus register and memory side-band data (§5.1.1).  This is the
 * program's one trace file format: TraceV3Writer writes it,
 * TraceV3Source replays it, and a file of any other version (the
 * retired flat v2 stream, the v3 chunked layout) is refused at open
 * with BAD_VERSION.  The container stores the same information split
 * the way the data is split: the decoded instruction is a pure
 * function of (program, PC), so each trace's distinct static
 * instructions are recorded once, in a static table, and each dynamic
 * record carries only what varies per instance.
 *
 *   HEADER   magic/version/record-size guard, record count, codec,
 *            chunk size, index offset, header checksum
 *   CHUNK*   [chunk header: magic, payload bytes, raw bytes, records,
 *             first record, checksum][payload]
 *   STATIC   the static table: one canonical wire record per distinct
 *            static instruction (pc, length, Inst, side-effect shape;
 *            every per-instance field zero), through the codec
 *   INDEX    one entry per chunk {offset, first record, payload bytes,
 *             raw bytes, records, checksum}, FNV-guarded
 *   FOOTER   index offset, chunk count, index checksum, static count,
 *            static bytes, static checksum, reserved, magic
 *
 * A chunk's raw payload is a run of variable-length compact records
 * (trace/chunk.hh): a flag byte, the static-table index unless the
 * previous record implies it, and the per-instance fields — register
 * values and memory addresses zigzag-delta-coded, data as varints.
 * Any record the compact form cannot carry is stored verbatim, so
 * every record reads back bit-identical.  Delta state resets at every
 * chunk, so seekToRecord() binary searches the index and decodes from
 * the owning chunk's start without touching the prefix.  Payloads are
 * stored raw or zlib-compressed, and every checksum covers the
 * *stored* bytes, so integrity is verified before any decompression
 * touches the data.  The header, index and static table are read and
 * validated once at open.
 *
 * Reads are buffered FILE* reads, one per chunk, and the reader keeps
 * a cursor into the decoded current chunk.  A damaged file yields its
 * valid prefix and a typed TraceError (TRUNCATED / BAD_CHECKSUM /
 * BAD_CHUNK / BAD_STATIC / READ_ERROR / ...) carrying the byte offset,
 * chunk index, and path of the failure; transient read faults retry
 * with backoff, persistently bad paths are quarantined process-wide,
 * and a fault-injector hook drives that path in tests.
 *
 * The classes keep their v3 names (TraceV3Writer, TraceV3Source):
 * they name the chunked container family, whose callers did not
 * change when the record layout did.
 */

#ifndef REPLAY_TRACE_TRACEV3_HH
#define REPLAY_TRACE_TRACEV3_HH

#include <cstdio>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/chunk.hh"

namespace replay::trace {

/**
 * Session-level trace quarantine: a trace that failed *persistently*
 * (a read error survived every retry) is registered here, and later
 * TraceV3Source opens of the same path fail fast with QUARANTINED
 * instead of re-paying the retry storm.  Transient faults that a retry
 * recovered never quarantine.  Thread-safe; the registry is process
 * wide and cleared explicitly (tests, campaign phase boundaries).
 */
bool traceQuarantined(const std::string &path);
void quarantineTrace(const std::string &path);
void clearTraceQuarantine();
size_t traceQuarantineSize();

/** v4 on-disk layout constants (tests corrupt fields by offset). */
namespace v4 {

constexpr uint32_t MAGIC = 0x52504c54;        // "RPLT"
constexpr uint32_t VERSION = 4;
constexpr uint32_t CHUNK_MAGIC = 0x344b4843;  // "CHK4"
constexpr uint32_t FOOTER_MAGIC = 0x34465052; // "RPF4"

/** Header: magic, version, recordBytes, recordCount, codec,
 *  chunkRecords, indexOffset, headerChecksum. */
constexpr size_t HEADER_BYTES = 4 + 4 + 4 + 8 + 4 + 4 + 8 + 4;

/** Chunk header: magic, payloadBytes, rawBytes, records, firstRecord,
 *  checksum. */
constexpr size_t CHUNK_HEADER_BYTES = 4 + 4 + 4 + 4 + 8 + 4;

/** Index entry: offset, firstRecord, payloadBytes, rawBytes, records,
 *  checksum. */
constexpr size_t INDEX_ENTRY_BYTES = 8 + 8 + 4 + 4 + 4 + 4;

/** Footer: indexOffset, chunkCount, indexChecksum, staticCount,
 *  staticBytes, staticChecksum, reserved, magic. */
constexpr size_t FOOTER_BYTES = 8 + 4 + 4 + 4 + 4 + 4 + 4 + 4;

// Field offsets within the header (for targeted corruption tests).
constexpr size_t HDR_OFF_MAGIC = 0;
constexpr size_t HDR_OFF_VERSION = 4;
constexpr size_t HDR_OFF_RECORD_BYTES = 8;
constexpr size_t HDR_OFF_RECORD_COUNT = 12;
constexpr size_t HDR_OFF_CODEC = 20;
constexpr size_t HDR_OFF_CHUNK_RECORDS = 24;
constexpr size_t HDR_OFF_INDEX_OFFSET = 28;
constexpr size_t HDR_OFF_CHECKSUM = 36;

// Field offsets within a chunk header.
constexpr size_t CHK_OFF_MAGIC = 0;
constexpr size_t CHK_OFF_PAYLOAD_BYTES = 4;
constexpr size_t CHK_OFF_RAW_BYTES = 8;
constexpr size_t CHK_OFF_RECORDS = 12;
constexpr size_t CHK_OFF_FIRST_RECORD = 16;
constexpr size_t CHK_OFF_CHECKSUM = 24;

// Field offsets within the footer.
constexpr size_t FTR_OFF_INDEX_OFFSET = 0;
constexpr size_t FTR_OFF_CHUNK_COUNT = 8;
constexpr size_t FTR_OFF_INDEX_CHECKSUM = 12;
constexpr size_t FTR_OFF_STATIC_COUNT = 16;
constexpr size_t FTR_OFF_STATIC_BYTES = 20;
constexpr size_t FTR_OFF_STATIC_CHECKSUM = 24;
constexpr size_t FTR_OFF_RESERVED = 28;
constexpr size_t FTR_OFF_MAGIC = 32;

/** One index entry (mirrored by its chunk's header). */
struct IndexEntry
{
    uint64_t offset;        ///< chunk header's file offset
    uint64_t firstRecord;
    uint32_t payloadBytes;  ///< stored (possibly compressed) bytes
    uint32_t rawBytes;      ///< compact record bytes after inflate
    uint32_t records;
    uint32_t checksum;      ///< chunkChecksum of the stored payload
};

} // namespace v4

/** Chunk payload codecs. */
enum class V3Codec : uint32_t
{
    RAW = 0,        ///< stored as is (no inflate on ingest)
    ZLIB = 1,       ///< zlib-deflated (compact corpus artifacts)
};

const char *v3CodecName(V3Codec codec);

/** True when this build can inflate ZLIB chunks. */
bool v3ZlibAvailable();

/** Writer/recorder options. */
struct V3Options
{
    /** Records per chunk; also the seek granularity and the span of
     *  the delta state.  The default (~6 kB raw per chunk) amortizes
     *  the per-chunk header while keeping resume cheap. */
    uint32_t chunkRecords = 1024;

    V3Codec codec = defaultCodec();

    /** ZLIB when compiled in, RAW otherwise. */
    static V3Codec defaultCodec();
};

/** Streaming writer for the v4 container. */
class TraceV3Writer
{
  public:
    explicit TraceV3Writer(const std::string &path, V3Options opts = {});
    ~TraceV3Writer();

    TraceV3Writer(const TraceV3Writer &) = delete;
    TraceV3Writer &operator=(const TraceV3Writer &) = delete;

    /** Append one record (no-op once in the error state). */
    void write(const TraceRecord &rec);

    /** Flush the pending chunk, write index + footer, patch the
     *  header, and close.  Returns the first error of the writer's
     *  whole life. */
    TraceError close();

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }
    uint64_t written() const { return count_; }

    /** Convenience: dump the first @p insts of a program to @p path. */
    static uint64_t dumpProgram(const x86::Program &program,
                                uint64_t insts, const std::string &path,
                                V3Options opts = {});

  private:
    void fail(TraceError::Kind kind, std::string msg);
    bool flushChunk();
    uint32_t intern(const TraceRecord &rec);
    bool store(const std::vector<uint8_t> &raw, const uint8_t *&payload,
               uint32_t &payload_bytes);

    std::FILE *file_ = nullptr;
    std::string path_;
    V3Options opts_;
    uint64_t count_ = 0;            ///< records written so far
    uint64_t fileOffset_ = 0;       ///< running write position
    std::vector<uint8_t> raw_;      ///< pending compact records
    uint32_t pendingRecords_ = 0;
    std::vector<uint8_t> zbuf_;     ///< compression scratch
    std::vector<v4::IndexEntry> index_;
    TraceError error_;

    // Static table: canonical encodings of the distinct static parts,
    // found by pc through a chain of same-pc entries starting at the
    // lowest-numbered one (the entry an implied successor names).
    std::vector<uint8_t> statics_;
    std::unordered_map<uint32_t, uint32_t> firstByPc_;
    std::vector<uint32_t> nextSamePc_;
    wire::DeltaState delta_;
    bool followOn_ = false;     ///< previous record implies the next
    uint32_t prevNextPc_ = 0;
};

/** Read-side options for TraceV3Source. */
struct V3SourceOptions
{
    /** Present only the first N records (0 = all).  Replay budget cap
     *  for corpus traces recorded longer than a sweep needs. */
    uint64_t limitRecords = 0;
};

/** TraceSource over a v4 container. */
class TraceV3Source : public TraceSource
{
  public:
    using Options = V3SourceOptions;

    explicit TraceV3Source(const std::string &path, Options opts = {});
    ~TraceV3Source() override;

    TraceV3Source(const TraceV3Source &) = delete;
    TraceV3Source &operator=(const TraceV3Source &) = delete;

    const TraceRecord *peek(unsigned ahead = 0) override;
    void advance() override;
    bool done() override;
    uint64_t consumed() const override { return consumed_ - base_; }

    bool ok() const { return error_.ok(); }
    const TraceError &error() const override { return error_; }

    /** Records the container holds (after the limit cap). */
    uint64_t totalRecords() const { return effTotal_; }

    /** Number of chunks the index describes. */
    size_t chunkCount() const { return index_.size(); }

    /**
     * Reposition the cursor to absolute record @p n (0-based), using
     * the index to land on the owning chunk without touching the
     * prefix.  @p n at or past the end positions the source at EOF
     * (done() == true).  Returns false iff the source is in an error
     * state.  consumed() counts from the seek target onward.
     */
    bool seekToRecord(uint64_t n);

    /**
     * Chaos hook: when set, each chunk load first asks the hook
     * whether to behave as a failed read (transient I/O fault).  The
     * injected fault exercises exactly the retry/backoff path real
     * transient EIO does.
     */
    void
    setIoFaultInjector(std::function<bool()> hook)
    {
        ioInject_ = std::move(hook);
    }

    /** Transient chunk-load faults absorbed by retrying. */
    uint64_t ioRetries() const { return ioRetries_; }

    /** Consecutive same-chunk retries before declaring READ_ERROR. */
    static constexpr unsigned MAX_READ_RETRIES = 3;

  private:
    struct DecodedChunk
    {
        uint64_t firstRecord = 0;
        std::vector<TraceRecord> recs;
    };

    void fail(TraceError::Kind kind, std::string msg, uint64_t offset,
              int64_t chunk = -1);
    bool openAndValidate(const std::string &path);
    const uint8_t *loadBytes(uint64_t offset, size_t len, size_t chunk);
    bool loadNextChunk();
    const TraceRecord *locate(uint64_t rec);
    bool enterChunk();

    std::FILE *file_ = nullptr;
    std::string path_;
    Options opts_;

    uint64_t total_ = 0;        ///< records the container holds
    uint64_t effTotal_ = 0;     ///< min(total, limit)
    uint64_t consumed_ = 0;     ///< absolute cursor (record index)
    uint64_t base_ = 0;         ///< consumed() origin (seek target)
    V3Codec codec_ = V3Codec::RAW;
    std::vector<v4::IndexEntry> index_;
    size_t nextChunk_ = 0;      ///< next index entry to load
    wire::StaticTable statics_;
    wire::DeltaState delta_;

    std::vector<DecodedChunk> window_;  ///< decoded, front = oldest
    std::vector<std::vector<TraceRecord>> pool_;

    // Read cursor: record consumed_ and the end of its run within the
    // front window chunk (clipped to effTotal_); equal when the cursor
    // must enter the next chunk.
    const TraceRecord *cur_ = nullptr;
    const TraceRecord *curEnd_ = nullptr;

    std::vector<uint8_t> ioBuf_;    ///< chunk staging (+ COMPACT_PAD)
    std::vector<uint8_t> rawBuf_;   ///< inflate scratch (+ COMPACT_PAD)

    TraceError error_;
    std::function<bool()> ioInject_;
    uint64_t ioRetries_ = 0;
};

/** Parsed container metadata (tracec inspect/index, layout tests). */
struct V3Info
{
    TraceError error;           ///< why inspection stopped, if it did

    uint64_t fileBytes = 0;
    uint32_t recordBytes = 0;
    uint64_t recordCount = 0;
    V3Codec codec = V3Codec::RAW;
    uint32_t chunkRecords = 0;
    uint64_t indexOffset = 0;

    uint64_t staticOffset = 0;  ///< start of the stored static table
    uint32_t staticCount = 0;   ///< distinct static instructions
    uint32_t staticBytes = 0;   ///< stored static-table bytes

    using Chunk = v4::IndexEntry;
    std::vector<Chunk> chunks;

    bool ok() const { return error.ok(); }

    /** Stored payload bytes across all chunks. */
    uint64_t payloadBytes() const;

    /** Compact record bytes across all chunks (what ingest inflates
     *  and decodes per replay). */
    uint64_t rawBytes() const;
};

/** Read and validate header, footer, index and static table without
 *  touching chunk payloads. */
V3Info inspectV3(const std::string &path);

} // namespace replay::trace

#endif // REPLAY_TRACE_TRACEV3_HH
