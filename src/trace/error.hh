/**
 * @file
 * The typed trace I/O error every trace source and writer reports
 * (describe() and traceErrorKindName() live in tracev3.cc, beside the
 * container code that raises most kinds).
 */

#ifndef REPLAY_TRACE_ERROR_HH
#define REPLAY_TRACE_ERROR_HH

#include <cstdint>
#include <string>

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
        TRUNCATED,          ///< file ends inside the container
        BAD_CHECKSUM,       ///< header or chunk payload failed its checksum
        WRITE_FAILED,       ///< fwrite reported a short write
        FLUSH_FAILED,       ///< flush/close failed
        READ_ERROR,         ///< read error persisted through retries
        QUARANTINED,        ///< trace previously failed persistently
        BAD_CHUNK,          ///< chunk header or payload corrupt/stale
        BAD_INDEX,          ///< footer/index corrupt or inconsistent
        BAD_CODEC,          ///< chunk codec unknown or unavailable
        BAD_STATIC,         ///< static instruction table corrupt
    };

    Kind kind = Kind::NONE;
    std::string message;

    // Diagnostic anchors: every error names the file it came from and
    // where in it the failure was detected, so an operator can go from
    // a log line straight to a hexdump offset.
    std::string path;       ///< offending trace file ("" = not file-bound)
    uint64_t byteOffset = 0; ///< file offset nearest the failure
    int64_t chunkIndex = -1; ///< chunk ordinal, -1 = not chunk-scoped

    bool ok() const { return kind == Kind::NONE; }

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

} // namespace replay::trace

#endif // REPLAY_TRACE_ERROR_HH
