#include "trace/tracefile.hh"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <set>
#include <thread>

#include "trace/chunk.hh"
#include "util/logging.hh"
#include "util/sync.hh"
#include "x86/executor.hh"

namespace replay::trace {

namespace {

constexpr uint32_t MAGIC = 0x52504c54;  // "RPLT"
constexpr uint32_t VERSION = 2;

/** Header: magic, version, encoded record size, record count. */
constexpr size_t HEADER_BYTES = 4 + 4 + 4 + 8;

using wire::decodeRecord;
using wire::encodeRecord;

/** FNV-1a over a record payload — the per-record integrity guard. */
uint32_t
checksum(const uint8_t *buf, size_t len)
{
    return wire::fnv1a32(buf, len);
}

/** Fixed encoded payload size (every record encodes identically). */
size_t
recordBytes()
{
    return wire::recordWireBytes();
}

/** Write the header with the record-size length guard filled in. */
bool
writeHeader(std::FILE *file, uint64_t records)
{
    uint8_t buf[HEADER_BYTES];
    wire::Encoder e{buf};
    e.u32(MAGIC);
    e.u32(VERSION);
    e.u32(uint32_t(recordBytes()));
    e.u64(records);
    return std::fwrite(buf, sizeof(buf), 1, file) == 1;
}

} // anonymous namespace

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

void
TraceFileWriter::fail(TraceError::Kind kind, std::string msg)
{
    if (error_.ok())
        error_ = TraceError::make(kind, std::move(msg));
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

TraceFileWriter::TraceFileWriter(const std::string &path)
{
    file_ = std::fopen(path.c_str(), "wb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "' for writing");
        return;
    }
    if (!writeHeader(file_, 0)) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot write trace header to '" + path + "'");
    }
}

TraceFileWriter::~TraceFileWriter()
{
    if (file_)
        close();
}

void
TraceFileWriter::write(const TraceRecord &rec)
{
    if (!file_)
        return;
    uint8_t buf[4 + wire::MAX_RECORD_BYTES];
    const size_t len = encodeRecord(rec, buf + 4);
    wire::store32(buf, checksum(buf + 4, len));
    if (std::fwrite(buf, 4 + len, 1, file_) != 1) {
        fail(TraceError::Kind::WRITE_FAILED, "short write to trace file");
        return;
    }
    ++count_;
}

TraceError
TraceFileWriter::close()
{
    if (!file_)
        return error_;
    if (std::fseek(file_, 0, SEEK_SET) != 0 ||
        !writeHeader(file_, count_)) {
        fail(TraceError::Kind::WRITE_FAILED,
             "cannot finalize trace header");
        return error_;
    }
    if (std::fflush(file_) != 0) {
        fail(TraceError::Kind::FLUSH_FAILED, "cannot flush trace file");
        return error_;
    }
    if (std::fclose(file_) != 0)
        error_ = TraceError::make(TraceError::Kind::FLUSH_FAILED,
                                  "cannot close trace file");
    file_ = nullptr;
    return error_;
}

uint64_t
TraceFileWriter::dumpProgram(const x86::Program &program, uint64_t insts,
                             const std::string &path)
{
    TraceFileWriter writer(path);
    x86::Executor exec(program);
    for (uint64_t i = 0; i < insts; ++i)
        writer.write(TraceRecord::fromStep(exec.step()));
    const TraceError err = writer.close();
    fatal_if(!err.ok(), "dumping trace to '%s': %s (%s)", path.c_str(),
             err.message.c_str(), traceErrorKindName(err.kind));
    return insts;
}

void
FileTraceSource::fail(TraceError::Kind kind, std::string msg)
{
    if (error_.ok()) {
        // Anchor the diagnostic to the first unread byte: the header
        // for open-time failures, the failed record's offset afterward.
        const uint64_t offset =
            total_ ? HEADER_BYTES + produced_ * (4 + recordBytes()) : 0;
        error_ = TraceError::at(kind, std::move(msg), path_, offset);
    }
    // End the stream at the last valid record: no more fills.
    total_ = produced_;
    if (file_) {
        std::fclose(file_);
        file_ = nullptr;
    }
}

FileTraceSource::FileTraceSource(const std::string &path)
    : path_(path), ring_(LOOKAHEAD * 2)
{
    if (traceQuarantined(path)) {
        fail(TraceError::Kind::QUARANTINED,
             "trace file '" + path +
                 "' is quarantined after persistent read errors");
        return;
    }
    file_ = std::fopen(path.c_str(), "rb");
    if (!file_) {
        fail(TraceError::Kind::OPEN_FAILED,
             "cannot open trace file '" + path + "'");
        return;
    }
    uint8_t buf[HEADER_BYTES];
    if (std::fread(buf, sizeof(buf), 1, file_) != 1) {
        fail(TraceError::Kind::SHORT_HEADER,
             "trace file '" + path + "' has no header");
        return;
    }
    wire::Decoder d{buf};
    const uint32_t magic = d.u32();
    const uint32_t version = d.u32();
    const uint32_t rec_bytes = d.u32();
    const uint64_t records = d.u64();
    if (magic != MAGIC) {
        fail(TraceError::Kind::BAD_MAGIC,
             "'" + path + "' is not a trace file");
        return;
    }
    if (version != VERSION) {
        fail(TraceError::Kind::BAD_VERSION,
             "trace file '" + path + "' has unsupported version " +
                 std::to_string(version));
        return;
    }
    if (rec_bytes != recordBytes()) {
        fail(TraceError::Kind::BAD_RECORD_SIZE,
             "trace file '" + path + "' declares " +
                 std::to_string(rec_bytes) + "-byte records, expected " +
                 std::to_string(recordBytes()));
        return;
    }
    total_ = records;
}

FileTraceSource::~FileTraceSource()
{
    if (file_)
        std::fclose(file_);
}

void
FileTraceSource::fill(unsigned n)
{
    // Records are block-read in batches and decoded out of a reusable
    // buffer: one fread per ~64 records instead of one per record.
    // Error semantics are unchanged — every complete record before a
    // damaged one is still delivered, and the error is reported at the
    // same record index as the per-record reader did.
    constexpr size_t BATCH = 64;
    const size_t rec_size = 4 + recordBytes();
    unsigned attempts = 0;
    while (count_ < n && produced_ < total_) {
        const uint64_t want =
            std::min<uint64_t>({BATCH, total_ - produced_,
                                uint64_t(ring_.size() - count_)});
        batch_.resize(size_t(want) * rec_size);
        // An injected fault behaves exactly like an fread that
        // returned nothing with ferror set — it exercises the same
        // retry path real transient EIO does.
        const bool injected = ioInject_ && ioInject_();
        const size_t got =
            injected ? 0
                     : std::fread(batch_.data(), 1, batch_.size(), file_);
        const size_t full = got / rec_size;
        for (size_t i = 0; i < full; ++i) {
            const uint8_t *buf = batch_.data() + i * rec_size;
            wire::Decoder d{buf};
            if (d.u32() != checksum(buf + 4, recordBytes())) {
                fail(TraceError::Kind::BAD_CHECKSUM,
                     "trace file '" + path_ +
                         "' record " + std::to_string(produced_) +
                         " failed its checksum");
                return;
            }
            ring_[(head_ + count_) % ring_.size()] =
                decodeRecord(buf + 4);
            ++count_;
            ++produced_;
        }
        if (full < want) {
            // Short read: distinguish a *transient* stream error
            // (ferror — e.g. EIO on flaky storage, or the injected
            // kind above) from honest end-of-file inside a record
            // (feof — the file really is truncated).  Only the former
            // is worth retrying; misfiling it as TRUNCATED would
            // silently shorten the workload.
            if (injected || std::ferror(file_)) {
                if (attempts < MAX_READ_RETRIES) {
                    ++attempts;
                    ++ioRetries_;
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(50u << attempts));
                    std::clearerr(file_);
                    // Re-seek to the first unread record: the failed
                    // fread may have consumed a partial tail.
                    if (std::fseek(file_,
                                   long(HEADER_BYTES +
                                        produced_ * rec_size),
                                   SEEK_SET) == 0) {
                        continue;
                    }
                }
                // Persistently bad: quarantine the path so later
                // opens this session fail fast instead of re-paying
                // the retry storm.
                quarantineTrace(path_);
                fail(TraceError::Kind::READ_ERROR,
                     "trace file '" + path_ +
                         "' read error at record " +
                         std::to_string(produced_) + " (after " +
                         std::to_string(attempts) + " retries)");
                return;
            }
            fail(TraceError::Kind::TRUNCATED,
                 "trace file '" + path_ + "' truncated at record " +
                     std::to_string(produced_));
            return;
        }
        attempts = 0;
    }
}

const TraceRecord *
FileTraceSource::peek(unsigned ahead)
{
    panic_if(ahead >= LOOKAHEAD, "peek(%u) beyond lookahead", ahead);
    fill(ahead + 1);
    if (ahead >= count_)
        return nullptr;
    return &ring_[(head_ + ahead) % ring_.size()];
}

void
FileTraceSource::advance()
{
    fill(1);
    panic_if(count_ == 0, "advance past end of trace file");
    head_ = (head_ + 1) % ring_.size();
    --count_;
    ++consumed_;
}

bool
FileTraceSource::done()
{
    fill(1);
    return count_ == 0;
}

} // namespace replay::trace
