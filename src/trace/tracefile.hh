/**
 * @file
 * Trace-file serialization.
 *
 * The paper's workloads are hardware-captured trace *files* (§5.1.1);
 * this module provides the equivalent persistent form for our records:
 * a compact binary format holding, per retired x86 instruction, the
 * instruction encoding, register state changes, and memory
 * transactions.  A written file can be replayed through the simulator
 * with FileTraceSource, decoupling trace generation from simulation
 * exactly as the paper's infrastructure did.
 *
 * Format v2 hardens the container against corrupt or truncated input:
 * the header carries magic/version plus the encoded record size (a
 * length guard against version skew), and every record is prefixed by
 * a 32-bit FNV-1a checksum of its payload.  I/O failures surface as a
 * recoverable TraceError instead of terminating the process — a
 * damaged file simply yields its valid prefix and reports why it
 * stopped.
 */

#ifndef REPLAY_TRACE_TRACEFILE_HH
#define REPLAY_TRACE_TRACEFILE_HH

#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "trace/record.hh"

namespace replay::trace {

/** Status/expected-style error descriptor for trace I/O. */
struct TraceError
{
    enum class Kind : uint8_t
    {
        NONE,               ///< no error
        OPEN_FAILED,        ///< file could not be opened
        SHORT_HEADER,       ///< file ends inside the header
        BAD_MAGIC,          ///< not a trace file
        BAD_VERSION,        ///< unsupported format version
        BAD_RECORD_SIZE,    ///< header record size != decoder's
        TRUNCATED,          ///< file ends inside a record (feof)
        BAD_CHECKSUM,       ///< record payload failed its checksum
        WRITE_FAILED,       ///< fwrite reported a short write
        FLUSH_FAILED,       ///< flush/close failed
        READ_ERROR,         ///< ferror persisted through retries
        QUARANTINED,        ///< trace previously failed persistently
        BAD_CHUNK,          ///< v4 chunk header or payload corrupt/stale
        BAD_INDEX,          ///< v4 footer/index corrupt or inconsistent
        BAD_CODEC,          ///< v4 chunk codec unknown or unavailable
        BAD_STATIC,         ///< v4 static instruction table corrupt
    };

    Kind kind = Kind::NONE;
    std::string message;

    // Diagnostic anchors: every error names the file it came from and
    // where in it the failure was detected, so an operator can go from
    // a log line straight to a hexdump offset.
    std::string path;       ///< offending trace file ("" = not file-bound)
    uint64_t byteOffset = 0; ///< file offset nearest the failure
    int64_t chunkIndex = -1; ///< v4 chunk ordinal, -1 = not chunk-scoped

    bool ok() const { return kind == Kind::NONE; }

    static TraceError
    make(Kind kind, std::string msg)
    {
        TraceError err;
        err.kind = kind;
        err.message = std::move(msg);
        return err;
    }

    /** Error anchored to a byte offset (and optionally a chunk). */
    static TraceError
    at(Kind kind, std::string msg, std::string file_path,
       uint64_t byte_offset, int64_t chunk_index = -1)
    {
        TraceError err;
        err.kind = kind;
        err.message = std::move(msg);
        err.path = std::move(file_path);
        err.byteOffset = byte_offset;
        err.chunkIndex = chunk_index;
        return err;
    }

    /** One-line report: kind, message, and the diagnostic anchors. */
    std::string describe() const;
};

const char *traceErrorKindName(TraceError::Kind kind);

/**
 * Session-level trace quarantine: a trace that failed *persistently*
 * (ferror survived every retry) is registered here, and subsequent
 * FileTraceSource opens of the same path fail fast with QUARANTINED
 * instead of re-paying the retry storm.  Transient faults that a retry
 * recovered never quarantine.  Thread-safe; the registry is process
 * wide and cleared explicitly (tests, campaign phase boundaries).
 */
bool traceQuarantined(const std::string &path);
void quarantineTrace(const std::string &path);
void clearTraceQuarantine();
size_t traceQuarantineSize();

/** Streaming writer for the binary trace format. */
class TraceFileWriter
{
  public:
    /**
     * Open (truncate) @p path.  Failure does not terminate: the writer
     * enters an error state (see ok()/error()) and later writes no-op.
     */
    explicit TraceFileWriter(const std::string &path);
    ~TraceFileWriter();

    TraceFileWriter(const TraceFileWriter &) = delete;
    TraceFileWriter &operator=(const TraceFileWriter &) = delete;

    /** Append one record (no-op once in the error state). */
    void write(const TraceRecord &rec);

    /**
     * Finalize the header (record count), flush, and close.  Returns
     * the first error encountered over the writer's whole life —
     * open, any write, or the final flush.
     */
    TraceError close();

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }

    uint64_t written() const { return count_; }

    /** Convenience: dump the first @p insts of a program to @p path. */
    static uint64_t dumpProgram(const x86::Program &program,
                                uint64_t insts, const std::string &path);

  private:
    void fail(TraceError::Kind kind, std::string msg);

    std::FILE *file_ = nullptr;
    uint64_t count_ = 0;
    TraceError error_;
};

/** TraceSource reading a file produced by TraceFileWriter. */
class FileTraceSource : public TraceSource
{
  public:
    /**
     * Open @p path.  A missing/corrupt header is a recoverable error:
     * the source reports it via ok()/error() and presents an empty
     * stream.  Mid-stream corruption (truncation, checksum mismatch)
     * ends the stream at the last valid record and records the error.
     */
    explicit FileTraceSource(const std::string &path);
    ~FileTraceSource() override;

    FileTraceSource(const FileTraceSource &) = delete;
    FileTraceSource &operator=(const FileTraceSource &) = delete;

    const TraceRecord *peek(unsigned ahead = 0) override;
    void advance() override;
    bool done() override;
    uint64_t consumed() const override { return consumed_; }

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }

    /** Total records the header claims. */
    uint64_t totalRecords() const { return total_; }

    /** Records actually decoded and delivered (or buffered) so far. */
    uint64_t produced() const { return produced_; }

    /**
     * Chaos hook: when set, each batched read first asks the hook
     * whether to behave as a failed fread (transient I/O fault).  An
     * injected fault exercises exactly the ferror retry path.
     */
    void
    setIoFaultInjector(std::function<bool()> hook)
    {
        ioInject_ = std::move(hook);
    }

    /** Transient read faults absorbed by retrying (real + injected). */
    uint64_t ioRetries() const { return ioRetries_; }

    /** Consecutive same-batch retries before declaring READ_ERROR. */
    static constexpr unsigned MAX_READ_RETRIES = 3;

  private:
    void fill(unsigned n);
    void fail(TraceError::Kind kind, std::string msg);

    std::FILE *file_ = nullptr;
    std::string path_;
    uint64_t total_ = 0;
    uint64_t produced_ = 0;
    uint64_t consumed_ = 0;
    TraceError error_;

    std::vector<TraceRecord> ring_;
    size_t head_ = 0;
    size_t count_ = 0;

    /** Reusable block-read buffer for batched record decode. */
    std::vector<uint8_t> batch_;

    std::function<bool()> ioInject_;
    uint64_t ioRetries_ = 0;
};

} // namespace replay::trace

#endif // REPLAY_TRACE_TRACEFILE_HH
