/**
 * @file
 * Chunked trace container (format v4) test battery.
 *
 * Three pillars, matching the hardening contract in DESIGN.md:
 *
 *  - Corruption matrix: for every structural field of the container
 *    (header, chunk headers, payload, static table, index, footer) a
 *    paired accept/reject check — the pristine file reads fully, the
 *    file with that one field damaged yields a *typed* TraceError plus
 *    the valid prefix, and restoring the field restores the full
 *    stream.  Never a crash, never silently wrong data.
 *
 *  - Round-trip properties: every record decodes bit-identical to the
 *    recorded one — every workload and hot spot through both codecs,
 *    and a hand-built stream of the compact codec's edge cases.
 *
 *  - Seek/resume: seekToRecord() agrees with sequential replay at
 *    chunk boundaries, mid-chunk, EOF and past-EOF, including after a
 *    transient injected read fault absorbed by the retry path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "fault/faultinjector.hh"
#include "trace/chunk.hh"
#include "trace/corpus.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/rng.hh"

using namespace replay;
using namespace replay::trace;
using fault::FaultInjector;
using Kind = TraceError::Kind;

namespace {

std::vector<uint8_t>
slurp(const std::string &path)
{
    std::vector<uint8_t> bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    uint8_t buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr) << path;
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

/** Rewrite one header field and re-seal the header checksum, so the
 *  *field* check trips instead of the checksum guard in front of it. */
void
patchHeaderField(std::vector<uint8_t> &bytes, size_t off, uint64_t value,
                 unsigned width)
{
    if (width == 8)
        wire::store64(bytes.data() + off, value);
    else
        wire::store32(bytes.data() + off, uint32_t(value));
    wire::store32(bytes.data() + v4::HDR_OFF_CHECKSUM,
                  wire::fnv1a32(bytes.data(), v4::HDR_OFF_CHECKSUM));
}

struct ReadResult
{
    uint64_t records = 0;
    TraceError err;
    uint64_t ioRetries = 0;
    std::vector<uint32_t> pcs;
};

ReadResult
readV3(const std::string &path, V3SourceOptions opts = {})
{
    clearTraceQuarantine();
    ReadResult r;
    TraceV3Source src(path, opts);
    while (!src.done()) {
        r.pcs.push_back(src.peek()->pc);
        src.advance();
    }
    r.records = src.consumed();
    r.err = src.error();
    r.ioRetries = src.ioRetries();
    return r;
}

/** The canonical wire bytes of @p rec: every field, unused slots
 *  included, so equal bytes mean a bit-identical record. */
std::vector<uint8_t>
canonical(const TraceRecord &rec)
{
    uint8_t buf[wire::MAX_RECORD_BYTES];
    return std::vector<uint8_t>(buf, buf + wire::encodeRecord(rec, buf));
}

/** Every field of every record must agree between the two sources. */
void
expectIdenticalStreams(TraceSource &got_src, TraceSource &want_src)
{
    uint64_t n = 0;
    while (!want_src.done()) {
        ASSERT_FALSE(got_src.done()) << "stream ended early at " << n;
        const TraceRecord *got = got_src.peek();
        const TraceRecord *want = want_src.peek();
        ASSERT_NE(got, nullptr);
        ASSERT_EQ(canonical(*got), canonical(*want)) << "record " << n;
        got_src.advance();
        want_src.advance();
        ++n;
    }
    EXPECT_TRUE(got_src.done()) << "stream has extra records past " << n;
}

} // namespace

// ---------------------------------------------------------------------
// Corruption matrix
// ---------------------------------------------------------------------

namespace {

constexpr uint64_t kNoOffsetCheck = ~uint64_t(0);
constexpr int64_t kNoChunkCheck = -2;

class TraceV3Corruption : public ::testing::Test
{
  protected:
    static constexpr uint64_t RECORDS = 2600;   // 1024 + 1024 + 552

    static void
    SetUpTestSuite()
    {
        path_ = new std::string(::testing::TempDir() + "matrix.rpl3");
        const Workload &w = findWorkload("gzip");
        V3Options opts;
        opts.chunkRecords = 1024;
        opts.codec = V3Codec::RAW;  // deterministic chunk geometry
        TraceV3Writer::dumpProgram(w.buildProgram(0), RECORDS, *path_,
                                   opts);
        pristine_ = new std::vector<uint8_t>(slurp(*path_));
        info_ = new V3Info(inspectV3(*path_));
        ASSERT_TRUE(info_->ok()) << info_->error.describe();
        ASSERT_EQ(info_->chunks.size(), 3u);
        ref_ = new ReadResult(readV3(*path_));
        ASSERT_TRUE(ref_->err.ok()) << ref_->err.describe();
        ASSERT_EQ(ref_->records, RECORDS);
    }

    static void
    TearDownTestSuite()
    {
        delete path_;
        delete pristine_;
        delete info_;
        delete ref_;
    }

    void
    SetUp() override
    {
        spit(*path_, *pristine_);
        clearTraceQuarantine();
    }

    /** The damaged file must yield a typed error and the exact valid
     *  prefix — and corruption must never quarantine the path. */
    void
    expectReject(Kind kind, uint64_t prefix,
                 uint64_t offset = kNoOffsetCheck,
                 int64_t chunk = kNoChunkCheck)
    {
        const ReadResult r = readV3(*path_);
        EXPECT_EQ(r.err.kind, kind)
            << "got " << traceErrorKindName(r.err.kind) << ": "
            << r.err.describe();
        EXPECT_EQ(r.records, prefix);
        ASSERT_LE(r.pcs.size(), ref_->pcs.size());
        EXPECT_TRUE(std::equal(r.pcs.begin(), r.pcs.end(),
                               ref_->pcs.begin()))
            << "delivered prefix diverges from the pristine stream";
        EXPECT_EQ(r.err.path, *path_);
        if (offset != kNoOffsetCheck) {
            EXPECT_EQ(r.err.byteOffset, offset);
        }
        if (chunk != kNoChunkCheck) {
            EXPECT_EQ(r.err.chunkIndex, chunk);
        }
        EXPECT_FALSE(traceQuarantined(*path_))
            << "corruption must not quarantine (only persistent "
               "read errors do)";
    }

    /** The restored file must deliver the full pristine stream. */
    void
    expectPristine()
    {
        const ReadResult r = readV3(*path_);
        EXPECT_TRUE(r.err.ok()) << r.err.describe();
        EXPECT_EQ(r.records, RECORDS);
        EXPECT_EQ(r.pcs, ref_->pcs);
    }

    static std::string *path_;
    static std::vector<uint8_t> *pristine_;
    static V3Info *info_;
    static ReadResult *ref_;
};

std::string *TraceV3Corruption::path_ = nullptr;
std::vector<uint8_t> *TraceV3Corruption::pristine_ = nullptr;
V3Info *TraceV3Corruption::info_ = nullptr;
ReadResult *TraceV3Corruption::ref_ = nullptr;

} // namespace

TEST_F(TraceV3Corruption, HeaderFieldFlipsAreTypedAndPaired)
{
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
        uint64_t errOffset;
    };
    // Fields behind the header checksum surface as BAD_CHECKSUM on a
    // raw bit-flip (the guard fires before the field is interpreted);
    // the fields in front of it get their own kinds.
    const Row rows[] = {
        {"magic", v4::HDR_OFF_MAGIC, Kind::BAD_MAGIC, v4::HDR_OFF_MAGIC},
        {"version", v4::HDR_OFF_VERSION, Kind::BAD_VERSION,
         v4::HDR_OFF_VERSION},
        {"recordBytes", v4::HDR_OFF_RECORD_BYTES, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
        {"recordCount", v4::HDR_OFF_RECORD_COUNT, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
        {"codec", v4::HDR_OFF_CODEC, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
        {"chunkRecords", v4::HDR_OFF_CHUNK_RECORDS, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
        {"indexOffset", v4::HDR_OFF_INDEX_OFFSET, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
        {"headerChecksum", v4::HDR_OFF_CHECKSUM, Kind::BAD_CHECKSUM,
         v4::HDR_OFF_CHECKSUM},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 0, row.errOffset);
        // flipByteAt is self-inverse: the un-flip restores the stream.
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, ResealedHeaderFieldsHitTheirTypedChecks)
{
    struct Row
    {
        const char *field;
        size_t offset;
        uint64_t value;
        unsigned width;
        Kind kind;
        uint64_t errOffset;
    };
    const Row rows[] = {
        // Wrong record size with a *valid* checksum: version skew.
        {"recordBytes", v4::HDR_OFF_RECORD_BYTES, 76, 4,
         Kind::BAD_RECORD_SIZE, v4::HDR_OFF_RECORD_BYTES},
        // Unknown codec id.
        {"codec", v4::HDR_OFF_CODEC, 7, 4, Kind::BAD_CODEC,
         v4::HDR_OFF_CODEC},
        // Stale index: header record count no longer matches what the
        // index tiles (e.g. the trace was re-recorded longer but the
        // old index/footer survived).
        {"recordCount+", v4::HDR_OFF_RECORD_COUNT, RECORDS + 512, 8,
         Kind::BAD_INDEX, info_->indexOffset},
        {"recordCount-", v4::HDR_OFF_RECORD_COUNT, RECORDS - 100, 8,
         Kind::BAD_INDEX, info_->indexOffset},
        // Header and footer disagreeing on where the index lives.
        {"indexOffset", v4::HDR_OFF_INDEX_OFFSET,
         info_->indexOffset + v4::INDEX_ENTRY_BYTES, 8, Kind::BAD_INDEX,
         pristine_->size() - v4::FOOTER_BYTES},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        std::vector<uint8_t> bytes = *pristine_;
        patchHeaderField(bytes, row.offset, row.value, row.width);
        spit(*path_, bytes);
        expectReject(row.kind, 0, row.errOffset);
        spit(*path_, *pristine_);
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, ChunkHeaderFieldFlipsRejectWithValidPrefix)
{
    // Damage chunk 1 of 3: the reader must deliver chunk 0's 1024
    // records, then stop with a typed, chunk-scoped error.
    const uint64_t c1 = info_->chunks[1].offset;
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
    };
    const Row rows[] = {
        {"chunkMagic", c1 + v4::CHK_OFF_MAGIC, Kind::BAD_CHUNK},
        {"payloadBytes", c1 + v4::CHK_OFF_PAYLOAD_BYTES, Kind::BAD_CHUNK},
        {"rawBytes", c1 + v4::CHK_OFF_RAW_BYTES, Kind::BAD_CHUNK},
        {"records", c1 + v4::CHK_OFF_RECORDS, Kind::BAD_CHUNK},
        {"firstRecord", c1 + v4::CHK_OFF_FIRST_RECORD, Kind::BAD_CHUNK},
        {"chunkChecksum", c1 + v4::CHK_OFF_CHECKSUM, Kind::BAD_CHUNK},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 1024, c1, 1);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }
}

TEST_F(TraceV3Corruption, PayloadBitFlipFailsTheChunkChecksum)
{
    const uint64_t c1 = info_->chunks[1].offset;
    const uint64_t payload = c1 + v4::CHUNK_HEADER_BYTES;
    const uint64_t payload_bytes = info_->chunks[1].payloadBytes;
    for (const uint64_t delta :
         {uint64_t(0), payload_bytes / 2, payload_bytes - 1}) {
        SCOPED_TRACE(delta);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + delta));
        expectReject(Kind::BAD_CHECKSUM, 1024, payload, 1);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + delta));
        expectPristine();
    }

    // A single-*bit* flip must be caught too (weakest corruption).
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + 100, 0x01));
    expectReject(Kind::BAD_CHECKSUM, 1024, payload, 1);
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, payload + 100, 0x01));
    expectPristine();
}

TEST_F(TraceV3Corruption, FirstChunkDamageDeliversZeroRecords)
{
    const uint64_t c0 = info_->chunks[0].offset;
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c0 + v4::CHK_OFF_MAGIC));
    expectReject(Kind::BAD_CHUNK, 0, c0, 0);
    ASSERT_TRUE(FaultInjector::flipByteAt(*path_, c0 + v4::CHK_OFF_MAGIC));
    expectPristine();
}

TEST_F(TraceV3Corruption, IndexAndFooterFlipsAreTypedAndPaired)
{
    const uint64_t index_off = info_->indexOffset;
    const uint64_t footer_off = pristine_->size() - v4::FOOTER_BYTES;
    struct Row
    {
        const char *field;
        uint64_t offset;
        Kind kind;
        uint64_t errOffset;
    };
    const uint64_t static_off = info_->staticOffset;
    const Row rows[] = {
        // Any index byte is covered by the footer's index checksum.
        {"indexEntry0", index_off + 3, Kind::BAD_INDEX, index_off},
        {"indexEntry2", index_off + 2 * v4::INDEX_ENTRY_BYTES + 20,
         Kind::BAD_INDEX, index_off},
        // Footer fields.
        {"footerIndexOffset", footer_off + v4::FTR_OFF_INDEX_OFFSET,
         Kind::BAD_INDEX, footer_off},
        {"footerChunkCount", footer_off + v4::FTR_OFF_CHUNK_COUNT,
         Kind::BAD_INDEX, footer_off},
        {"footerIndexChecksum", footer_off + v4::FTR_OFF_INDEX_CHECKSUM,
         Kind::BAD_INDEX, index_off},
        // A wrong static count no longer fits the stored table; a
        // wrong static size moves the table start off the last chunk's
        // end (the low byte flip keeps it inside the file).
        {"footerStaticCount", footer_off + v4::FTR_OFF_STATIC_COUNT,
         Kind::BAD_STATIC, static_off},
        {"footerStaticBytes", footer_off + v4::FTR_OFF_STATIC_BYTES,
         Kind::BAD_INDEX, index_off},
        {"footerStaticChecksum", footer_off + v4::FTR_OFF_STATIC_CHECKSUM,
         Kind::BAD_STATIC, static_off},
        {"footerMagic", footer_off + v4::FTR_OFF_MAGIC, Kind::TRUNCATED,
         pristine_->size() - 4},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.field);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectReject(row.kind, 0, row.errOffset);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, row.offset));
        expectPristine();
    }

    // The reserved footer word is the one span checksums do not cover:
    // flipping it must NOT reject (documents the only hole, and keeps
    // the fuzz test's accept arm honest).
    ASSERT_TRUE(
        FaultInjector::flipByteAt(*path_, footer_off + v4::FTR_OFF_RESERVED));
    expectPristine();
    ASSERT_TRUE(
        FaultInjector::flipByteAt(*path_, footer_off + v4::FTR_OFF_RESERVED));
    expectPristine();
}

TEST_F(TraceV3Corruption, DuplicatedChunkIsCaughtByTheIndexCrossCheck)
{
    // Splice chunk 0's bytes over chunk 1 (as many as fit: compact
    // chunks differ in size).  Chunk 1's header then carries
    // firstRecord 0, disagreeing with the FNV-sealed index entry.
    const V3Info::Chunk &c0 = info_->chunks[0];
    const V3Info::Chunk &c1 = info_->chunks[1];
    const size_t span = v4::CHUNK_HEADER_BYTES +
                        std::min(c0.payloadBytes, c1.payloadBytes);

    std::vector<uint8_t> bytes = *pristine_;
    std::memcpy(bytes.data() + c1.offset, bytes.data() + c0.offset, span);
    spit(*path_, bytes);
    {
        SCOPED_TRACE("duplicated chunk");
        expectReject(Kind::BAD_CHUNK, 1024, c1.offset, 1);
    }
    const ReadResult r = readV3(*path_);
    EXPECT_NE(r.err.message.find("duplicated"), std::string::npos)
        << r.err.describe();

    spit(*path_, *pristine_);
    expectPristine();
}

TEST_F(TraceV3Corruption, StaticTableDamageIsTypedAndPaired)
{
    // The static table is read at open, so damage anywhere in it
    // rejects the whole container before any record is delivered.
    const uint64_t table = info_->staticOffset;
    for (const uint64_t delta :
         {uint64_t(0), uint64_t(info_->staticBytes / 2),
          uint64_t(info_->staticBytes - 1)}) {
        SCOPED_TRACE(delta);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, table + delta));
        expectReject(Kind::BAD_STATIC, 0, table);
        ASSERT_TRUE(FaultInjector::flipByteAt(*path_, table + delta));
        expectPristine();
    }

    // A resealed entry with a per-instance field set (here nextPc) is
    // not a static instruction, whatever its checksum says.
    std::vector<uint8_t> bytes = *pristine_;
    const size_t entry1 = size_t(table) + wire::recordWireBytes();
    bytes[entry1 + 4] ^= 0x10;
    const uint64_t footer_off = bytes.size() - v4::FOOTER_BYTES;
    wire::store32(bytes.data() + footer_off + v4::FTR_OFF_STATIC_CHECKSUM,
                  wire::chunkChecksum(bytes.data() + table,
                                      info_->staticBytes));
    spit(*path_, bytes);
    expectReject(Kind::BAD_STATIC, 0, table);
    const ReadResult r = readV3(*path_);
    EXPECT_NE(r.err.message.find("entry 1"), std::string::npos)
        << r.err.describe();
    spit(*path_, *pristine_);
    expectPristine();
}

TEST_F(TraceV3Corruption, TruncationIsTypedAtEveryCutPoint)
{
    struct Row
    {
        const char *site;
        uint64_t keep;
        Kind kind;
    };
    const Row rows[] = {
        {"insideHeader", 16, Kind::SHORT_HEADER},
        {"beforeFooterMinimum", v4::HEADER_BYTES + 10, Kind::TRUNCATED},
        {"midChunk1", info_->chunks[1].offset + 1000, Kind::TRUNCATED},
        {"insideStaticTable", info_->staticOffset + 100,
         Kind::TRUNCATED},
        {"atIndexStart", info_->indexOffset, Kind::TRUNCATED},
        {"insideFooter", pristine_->size() - 3, Kind::TRUNCATED},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.site);
        std::vector<uint8_t> bytes = *pristine_;
        bytes.resize(size_t(row.keep));
        spit(*path_, bytes);
        // A file cut off mid-write has no trustworthy index, so the
        // whole container is rejected at open: prefix 0.
        expectReject(row.kind, 0);
        spit(*path_, *pristine_);
        expectPristine();
    }
}

// ---------------------------------------------------------------------
// Randomized mutation fuzz smoke: 500 mutated containers, zero crashes,
// zero escapes (an accepted full read must digest pristine).
// ---------------------------------------------------------------------

TEST(TraceV3Fuzz, RandomMutationsNeverCrashOrEscape)
{
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t N = 900;
    const std::string path = ::testing::TempDir() + "fuzz.rpl3";

    V3Options raw_opts;
    raw_opts.chunkRecords = 128;
    raw_opts.codec = V3Codec::RAW;
    TraceV3Writer::dumpProgram(prog, N, path, raw_opts);
    const std::vector<uint8_t> raw_bytes = slurp(path);

    uint64_t want_digest = 0;
    {
        clearTraceQuarantine();
        TraceV3Source src(path);
        want_digest = wire::streamDigest(src);
        ASSERT_TRUE(src.ok());
        ASSERT_EQ(src.consumed(), N);
    }

    std::vector<uint8_t> zlib_bytes;
    if (v3ZlibAvailable()) {
        V3Options z = raw_opts;
        z.codec = V3Codec::ZLIB;
        TraceV3Writer::dumpProgram(prog, N, path, z);
        zlib_bytes = slurp(path);
        clearTraceQuarantine();
        TraceV3Source src(path);
        EXPECT_EQ(wire::streamDigest(src), want_digest)
            << "zlib and raw codecs must digest identically";
    }

    Rng rng(20260809);
    unsigned rejects = 0, accepts = 0;
    for (unsigned iter = 0; iter < 500; ++iter) {
        const bool use_zlib = !zlib_bytes.empty() && iter % 3 == 0;
        const std::vector<uint8_t> &base =
            use_zlib ? zlib_bytes : raw_bytes;
        std::vector<uint8_t> bytes = base;
        if (rng.chance(0.2)) {
            bytes.resize(size_t(rng.below(bytes.size())));
        } else {
            const unsigned flips = 1 + unsigned(rng.below(4));
            for (unsigned f = 0; f < flips; ++f)
                bytes[size_t(rng.below(bytes.size()))] ^=
                    uint8_t(1u << rng.below(8));
        }
        spit(path, bytes);

        clearTraceQuarantine();
        TraceV3Source src(path);
        const uint64_t digest = wire::streamDigest(src);
        if (src.ok()) {
            // Accepted: the stream must be byte-identical to pristine
            // — anything else is a silent-wrong-data escape.
            EXPECT_EQ(src.consumed(), N) << "iteration " << iter;
            EXPECT_EQ(digest, want_digest) << "iteration " << iter;
            ++accepts;
        } else {
            EXPECT_NE(src.error().kind, Kind::NONE);
            EXPECT_FALSE(src.error().path.empty()) << "iteration " << iter;
            EXPECT_LE(src.consumed(), N);
            ++rejects;
        }
    }
    // Nearly the whole file is checksummed (the 4-byte reserved footer
    // word is the only uncovered span), so accepts are rare.
    EXPECT_GE(rejects, 490u) << accepts << " accepts";
    clearTraceQuarantine();
}

// ---------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------

TEST(TraceV3RoundTrip, WriterReaderPreserveEveryField)
{
    const Workload &w = findWorkload("eon");   // exercises FP records
    const x86::Program prog = w.buildProgram(0);
    const std::string path = ::testing::TempDir() + "eon.rpl3";
    TraceV3Writer::dumpProgram(prog, 3000, path);

    clearTraceQuarantine();
    TraceV3Source src(path);
    ASSERT_TRUE(src.ok()) << src.error().describe();
    EXPECT_EQ(src.totalRecords(), 3000u);
    ExecutorTraceSource want(prog, 3000);
    expectIdenticalStreams(src, want);
    EXPECT_TRUE(src.ok());
}

TEST(TraceV3RoundTrip, RecordedDigestMatchesLiveForAllFourteenWorkloads)
{
    const uint64_t N = 1200;
    for (const Workload &w : standardWorkloads()) {
        SCOPED_TRACE(w.name);
        const x86::Program prog = w.buildProgram(0);
        const std::string v3_path =
            ::testing::TempDir() + w.name + ".rpl3";
        TraceV3Writer::dumpProgram(prog, N, v3_path);

        // The stream digest ties the recording to live synthesis —
        // what a corpus manifest pins.
        ExecutorTraceSource live(prog, N);
        const uint64_t want = wire::streamDigest(live);

        clearTraceQuarantine();
        TraceV3Source v3src(v3_path);
        EXPECT_EQ(wire::streamDigest(v3src), want);
        ASSERT_TRUE(v3src.ok()) << v3src.error().describe();
        EXPECT_EQ(v3src.consumed(), N);
    }
}

TEST(TraceV3RoundTrip, ZlibAndRawCodecsDeliverTheSameStream)
{
    if (!v3ZlibAvailable())
        GTEST_SKIP() << "built without zlib";
    const Workload &w = findWorkload("vortex");
    const x86::Program prog = w.buildProgram(0);
    const std::string raw_path = ::testing::TempDir() + "codec_raw.rpl3";
    const std::string z_path = ::testing::TempDir() + "codec_zlib.rpl3";
    V3Options raw_opts;
    raw_opts.codec = V3Codec::RAW;
    V3Options z_opts;
    z_opts.codec = V3Codec::ZLIB;
    TraceV3Writer::dumpProgram(prog, 4000, raw_path, raw_opts);
    TraceV3Writer::dumpProgram(prog, 4000, z_path, z_opts);

    clearTraceQuarantine();
    TraceV3Source a(raw_path), b(z_path);
    expectIdenticalStreams(b, a);
    EXPECT_TRUE(a.ok());
    EXPECT_TRUE(b.ok());

    // Compression must actually compress the synthetic traces.
    EXPECT_LT(std::filesystem::file_size(z_path),
              std::filesystem::file_size(raw_path) / 4);
}

namespace {

x86::Inst
inst(x86::Mnem mnem, x86::Form form)
{
    x86::Inst in;
    in.mnem = mnem;
    in.form = form;
    return in;
}

TraceRecord
record(uint32_t pc, uint8_t length, const x86::Inst &in)
{
    TraceRecord r;
    r.pc = pc;
    r.length = length;
    r.inst = in;
    r.nextPc = pc + length;
    return r;
}

/**
 * A hand-built stream over the compact codec's edge cases, repeated
 * @p rounds times with values that move each round so the delta coders
 * see growth, wraparound and chunk resets.
 */
std::vector<TraceRecord>
edgeStream(unsigned rounds)
{
    using x86::Form;
    using x86::Mnem;
    using x86::Reg;
    std::vector<TraceRecord> out;
    for (unsigned k = 0; k < rounds; ++k) {
        // ALU op with one register write and a flags update.
        x86::Inst add = inst(Mnem::ADD, Form::RI);
        add.reg1 = Reg::EAX;
        add.imm = 5;
        TraceRecord r = record(0x1000, 3, add);
        r.wroteFlags = true;
        r.flagsAfter = uint8_t(k & 0x1f);
        r.numRegWrites = 1;
        r.regWrites[0] = {Reg::EAX, 42 + k};
        out.push_back(r);

        // Taken, then not-taken, direct conditional branch.
        x86::Inst jcc = inst(Mnem::JCC, Form::REL);
        jcc.cc = x86::Cond::NE;
        jcc.target = 0x2000;
        r = record(0x1003, 2, jcc);
        r.taken = k % 2 == 0;
        r.nextPc = r.taken ? 0x2000 : 0x1005;
        out.push_back(r);

        // RET: an indirect target, a stack load and an ESP write.
        r = record(r.nextPc, 1, inst(Mnem::RET, Form::NONE));
        r.taken = true;
        r.nextPc = 0x00401234u + 16 * k;
        r.numMemOps = 1;
        r.memOps[0] = {false, 0x7fff0000u - 4 * k, 4, r.nextPc};
        r.numRegWrites = 1;
        r.regWrites[0] = {Reg::ESP, 0x7fff0004u - 4 * k};
        out.push_back(r);

        // pc discontinuity: this record is not at the RET's target.
        // Two register writes, a load and a store, and an FP write
        // (-0.0f, whose only set bit is the sign).
        x86::Inst rich = inst(Mnem::FST, Form::FM);
        rich.freg1 = x86::FReg::F3;
        r = record(0x9000, 6, rich);
        r.numRegWrites = 2;
        r.regWrites[0] = {Reg::EDX, k ? 0xffffffffu : 0u};
        r.regWrites[1] = {Reg::ECX, 0x80000000u ^ k};
        r.numMemOps = 2;
        r.memOps[0] = {false, 0xfffffff0u + 8 * k, 4, 0xdeadbeefu};
        r.memOps[1] = {true, 0x10u + k, 1, 0xab};
        r.numFregWrites = 1;
        r.fregWrite = {x86::FReg::F3, k % 2 ? -0.0f : 1.5f * float(k)};
        out.push_back(r);

        // Long-flow instruction, then an indirect jump far away.
        out.push_back(record(0x9006, 7, inst(Mnem::LONGFLOW, Form::NONE)));
        x86::Inst jmp = inst(Mnem::JMP, Form::R);
        jmp.reg1 = Reg::EBX;
        r = record(0x900d, 2, jmp);
        r.taken = true;
        r.nextPc = 0x1000;
        out.push_back(r);

        // The same pc seen with a different Inst (and shape), then with
        // the first one again: two static entries share one pc.
        x86::Inst sub = inst(Mnem::SUB, Form::RR);
        sub.reg1 = Reg::ESI;
        sub.reg2 = Reg::EDI;
        r = record(0x1000, 2, sub);
        r.nextPc = 0x1002;
        r.numRegWrites = 1;
        r.regWrites[0] = {Reg::ESI, 7 * k};
        out.push_back(r);
        r = record(0x1002, 1, inst(Mnem::NOP, Form::NONE));
        r.nextPc = 0x1000;
        r.taken = true;
        out.push_back(r);
        r = out[out.size() - 8];    // the ADD at 0x1000 again
        r.regWrites[0].value += 1;
        out.push_back(r);

        // Out of the compact codec's reach: a value in an unused
        // register, memory or FP slot (stored verbatim), and a count
        // past the slot array.
        r = record(0x5000, 2, inst(Mnem::NOP, Form::NONE));
        if (k % 3 == 0)
            r.regWrites[1] = {Reg::EAX, 7};
        else if (k % 3 == 1)
            r.memOps[1].data = 9;
        else
            r.fregWrite.value = 2.0f;
        out.push_back(r);
        r = record(0x5002, 2, inst(Mnem::CDQ, Form::NONE));
        r.numRegWrites = 3;
        r.regWrites[0] = {Reg::EDX, 0xffffffffu};
        r.regWrites[1] = {Reg::EAX, k};
        out.push_back(r);
    }
    return out;
}

/** Write @p recs to @p path and read them back; every record must be
 *  bit-identical and the stream digests must match. */
void
expectRoundTrip(const std::vector<TraceRecord> &recs,
                const std::string &path, V3Options opts)
{
    {
        TraceV3Writer writer(path, opts);
        for (const TraceRecord &r : recs)
            writer.write(r);
        const TraceError err = writer.close();
        ASSERT_TRUE(err.ok()) << err.describe();
    }
    clearTraceQuarantine();
    TraceV3Source got(path);
    ASSERT_TRUE(got.ok()) << got.error().describe();
    VectorTraceSource want(recs);
    expectIdenticalStreams(got, want);
    EXPECT_TRUE(got.ok()) << got.error().describe();

    TraceV3Source again(path);
    VectorTraceSource want_again(recs);
    EXPECT_EQ(wire::streamDigest(again), wire::streamDigest(want_again));
}

} // namespace

TEST(TraceV3RoundTrip, HandBuiltEdgeStreamIsBitIdentical)
{
    const std::vector<TraceRecord> recs = edgeStream(40);
    for (const V3Codec codec : {V3Codec::RAW, V3Codec::ZLIB}) {
        if (codec == V3Codec::ZLIB && !v3ZlibAvailable())
            continue;
        SCOPED_TRACE(v3CodecName(codec));
        for (const uint32_t chunk : {1u, 5u, 64u, 1024u}) {
            SCOPED_TRACE(chunk);
            V3Options opts;
            opts.codec = codec;
            opts.chunkRecords = chunk;
            expectRoundTrip(recs, ::testing::TempDir() + "edge.rpl3",
                            opts);
        }
    }
    // Two entries share pc 0x1000; the NOP/CDQ pair is stored once
    // each, and the verbatim record adds none.
    const V3Info info = inspectV3(::testing::TempDir() + "edge.rpl3");
    ASSERT_TRUE(info.ok()) << info.error.describe();
    EXPECT_EQ(info.staticCount, 10u);
}

TEST(TraceV3RoundTrip, EveryWorkloadAndHotSpotThroughBothCodecs)
{
    const uint64_t N = 3000;
    for (const Workload &w : standardWorkloads()) {
        for (unsigned t = 0; t < w.numTraces; ++t) {
            SCOPED_TRACE(w.name + "." + std::to_string(t));
            const std::vector<TraceRecord> recs =
                collectTrace(w.buildProgram(t), N);
            for (const V3Codec codec : {V3Codec::RAW, V3Codec::ZLIB}) {
                if (codec == V3Codec::ZLIB && !v3ZlibAvailable())
                    continue;
                V3Options opts;
                opts.codec = codec;
                opts.chunkRecords = 512;
                expectRoundTrip(recs,
                                ::testing::TempDir() + "every.rpl3",
                                opts);
            }
        }
    }
}

TEST(TraceV3RoundTrip, EmptyContainerRoundTrips)
{
    const std::string path = ::testing::TempDir() + "empty.rpl3";
    {
        TraceV3Writer writer(path);
        const TraceError err = writer.close();
        ASSERT_TRUE(err.ok()) << err.describe();
    }
    const V3Info info = inspectV3(path);
    EXPECT_TRUE(info.ok()) << info.error.describe();
    EXPECT_EQ(info.recordCount, 0u);
    EXPECT_TRUE(info.chunks.empty());

    clearTraceQuarantine();
    TraceV3Source src(path);
    EXPECT_TRUE(src.ok()) << src.error().describe();
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.consumed(), 0u);
    EXPECT_TRUE(src.seekToRecord(0));
    EXPECT_TRUE(src.done());
}

TEST(TraceV3RoundTrip, LimitRecordsCapsThePresentedStream)
{
    const Workload &w = findWorkload("bzip2");
    const x86::Program prog = w.buildProgram(0);
    const std::string path = ::testing::TempDir() + "limit.rpl3";
    TraceV3Writer::dumpProgram(prog, 3000, path);

    clearTraceQuarantine();
    V3SourceOptions opts;
    opts.limitRecords = 700;
    TraceV3Source src(path, opts);
    EXPECT_EQ(src.totalRecords(), 700u);
    ExecutorTraceSource want(prog, 700);
    expectIdenticalStreams(src, want);
    EXPECT_TRUE(src.ok());
    EXPECT_EQ(src.consumed(), 700u);
}

TEST(TraceV3Open, OtherVersionsAndJunkAreRefusedTyped)
{
    const Workload &w = findWorkload("twolf");
    const std::string path = ::testing::TempDir() + "versions.rpl3";
    TraceV3Writer::dumpProgram(w.buildProgram(0), 800, path);
    const std::vector<uint8_t> pristine = slurp(path);

    // A version-2 (retired flat stream) or version-3 (earlier chunked
    // layout) header is refused at open, not misread as v4.
    clearTraceQuarantine();
    for (const uint32_t version : {2u, 3u, 5u}) {
        SCOPED_TRACE("version " + std::to_string(version));
        std::vector<uint8_t> bytes = pristine;
        wire::store32(bytes.data() + v4::HDR_OFF_VERSION, version);
        const std::string old_path = ::testing::TempDir() + "old.rpl3";
        spit(old_path, bytes);
        TraceV3Source src(old_path);
        EXPECT_EQ(src.error().kind, Kind::BAD_VERSION);
        EXPECT_EQ(src.error().byteOffset, v4::HDR_OFF_VERSION);
        EXPECT_TRUE(src.done());
    }

    // A whole v2 flat stream as its writer laid it out: a 20-byte
    // header (magic, version, record size, record count), then
    // checksum-prefixed fixed-size records.
    std::vector<uint8_t> flat(20 + 10 * (4 + wire::recordWireBytes()));
    wire::store32(flat.data(), v4::MAGIC);
    wire::store32(flat.data() + 4, 2);
    wire::store32(flat.data() + 8, uint32_t(wire::recordWireBytes()));
    wire::store32(flat.data() + 12, 10);
    const std::string flat_path = ::testing::TempDir() + "flat_v2.bin";
    spit(flat_path, flat);
    TraceV3Source v2(flat_path);
    EXPECT_EQ(v2.error().kind, Kind::BAD_VERSION);
    EXPECT_TRUE(v2.done());

    // Junk: too short for a header, or header-sized without the magic.
    const std::string junk = ::testing::TempDir() + "junk.bin";
    spit(junk, {'h', 'e', 'l', 'l', 'o', ' ', 'f', 's'});
    TraceV3Source tiny(junk);
    EXPECT_EQ(tiny.error().kind, Kind::SHORT_HEADER);
    EXPECT_EQ(tiny.error().path, junk);
    EXPECT_TRUE(tiny.done());

    spit(junk, std::vector<uint8_t>(v4::HEADER_BYTES + v4::FOOTER_BYTES,
                                    'x'));
    TraceV3Source bad(junk);
    EXPECT_EQ(bad.error().kind, Kind::BAD_MAGIC);
    EXPECT_EQ(bad.error().path, junk);
    EXPECT_TRUE(bad.done());
}

TEST(TraceV3Inspect, IndexTilesTheFileExactly)
{
    const Workload &w = findWorkload("crafty");
    const std::string path = ::testing::TempDir() + "inspect.rpl3";
    V3Options opts;
    opts.chunkRecords = 256;
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1000, path, opts);

    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    EXPECT_EQ(info.recordCount, 1000u);
    EXPECT_EQ(info.chunkRecords, 256u);
    EXPECT_EQ(info.recordBytes, wire::recordWireBytes());
    ASSERT_EQ(info.chunks.size(), 4u);   // 256+256+256+232

    uint64_t next_offset = v4::HEADER_BYTES;
    uint64_t next_record = 0;
    for (const V3Info::Chunk &c : info.chunks) {
        EXPECT_EQ(c.offset, next_offset);
        EXPECT_EQ(c.firstRecord, next_record);
        next_offset = c.offset + v4::CHUNK_HEADER_BYTES + c.payloadBytes;
        next_record = c.firstRecord + c.records;
    }
    EXPECT_EQ(next_offset, info.staticOffset);
    EXPECT_EQ(info.staticOffset + info.staticBytes, info.indexOffset);
    EXPECT_GT(info.staticCount, 0u);
    EXPECT_EQ(next_record, 1000u);
    EXPECT_EQ(info.chunks.back().records, 232u);
    EXPECT_EQ(info.fileBytes,
              info.indexOffset +
                  info.chunks.size() * v4::INDEX_ENTRY_BYTES +
                  v4::FOOTER_BYTES);
}

TEST(TraceV3Decode, ForgedRecordsAreTypedWithValidPrefix)
{
    // Forge chunk 1's first record — a chunk start, so it names its
    // static entry explicitly — and reseal every checksum over it, so
    // only the decoder's own checks stand between it and the reader.
    const std::string path = ::testing::TempDir() + "forged.rpl3";
    V3Options opts;
    opts.codec = V3Codec::RAW;
    opts.chunkRecords = 11;
    const std::vector<TraceRecord> recs = edgeStream(3);
    TraceV3Writer writer(path, opts);
    for (const TraceRecord &r : recs)
        writer.write(r);
    ASSERT_TRUE(writer.close().ok());
    const std::vector<uint8_t> pristine = slurp(path);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok()) << info.error.describe();
    ASSERT_GE(info.chunks.size(), 2u);
    ASSERT_LT(info.staticCount, 0x7fu);

    const V3Info::Chunk &c1 = info.chunks[1];
    const size_t payload = size_t(c1.offset) + v4::CHUNK_HEADER_BYTES;
    ASSERT_TRUE(pristine[payload] & wire::FLAG_STATIC);
    ASSERT_LT(pristine[payload + 1], 0x80) << "one-byte static index";

    auto reseal = [&](std::vector<uint8_t> &bytes) {
        const uint32_t sum =
            wire::chunkChecksum(bytes.data() + payload, c1.payloadBytes);
        wire::store32(bytes.data() + c1.offset + v4::CHK_OFF_CHECKSUM,
                      sum);
        const size_t entry =
            size_t(info.indexOffset) + v4::INDEX_ENTRY_BYTES;
        wire::store32(bytes.data() + entry + 28, sum);
        wire::store32(bytes.data() + bytes.size() - v4::FOOTER_BYTES +
                          v4::FTR_OFF_INDEX_CHECKSUM,
                      wire::fnv1a32(bytes.data() + info.indexOffset,
                                    info.chunks.size() *
                                        v4::INDEX_ENTRY_BYTES));
    };
    struct Row
    {
        const char *what;
        size_t offset;
        uint8_t value;
    };
    const Row rows[] = {
        {"static index out of range", payload + 1, 0x7f},
        {"static index missing", payload,
         uint8_t(pristine[payload] & ~wire::FLAG_STATIC)},
        {"reserved flag bits set", payload,
         uint8_t(pristine[payload] | 0x40)},
    };
    for (const Row &row : rows) {
        SCOPED_TRACE(row.what);
        std::vector<uint8_t> bytes = pristine;
        bytes[row.offset] = row.value;
        reseal(bytes);
        spit(path, bytes);
        const ReadResult r = readV3(path);
        EXPECT_EQ(r.err.kind, Kind::BAD_CHUNK) << r.err.describe();
        EXPECT_EQ(r.err.chunkIndex, 1);
        EXPECT_EQ(r.err.byteOffset, payload);
        EXPECT_NE(r.err.message.find(row.what), std::string::npos)
            << r.err.describe();
        EXPECT_EQ(r.records, c1.firstRecord);
        EXPECT_FALSE(traceQuarantined(path));
    }

    // A last chunk whose header, index entry and record count all claim
    // one record fewer than its payload holds: the leftover bytes are
    // caught, not ignored.
    {
        std::vector<uint8_t> bytes = pristine;
        const size_t last = info.chunks.size() - 1;
        const V3Info::Chunk &cl = info.chunks[last];
        const size_t entry =
            size_t(info.indexOffset) + last * v4::INDEX_ENTRY_BYTES;
        wire::store32(bytes.data() + cl.offset + v4::CHK_OFF_RECORDS,
                      cl.records - 1);
        wire::store32(bytes.data() + entry + 24, cl.records - 1);
        wire::store32(bytes.data() + bytes.size() - v4::FOOTER_BYTES +
                          v4::FTR_OFF_INDEX_CHECKSUM,
                      wire::fnv1a32(bytes.data() + info.indexOffset,
                                    info.chunks.size() *
                                        v4::INDEX_ENTRY_BYTES));
        patchHeaderField(bytes, v4::HDR_OFF_RECORD_COUNT,
                         info.recordCount - 1, 8);
        spit(path, bytes);
        const ReadResult r = readV3(path);
        EXPECT_EQ(r.err.kind, Kind::BAD_CHUNK) << r.err.describe();
        EXPECT_EQ(r.err.chunkIndex, int64_t(last));
        EXPECT_NE(r.err.message.find("bytes past its last record"),
                  std::string::npos)
            << r.err.describe();
        EXPECT_EQ(r.records, cl.firstRecord);
    }

    spit(path, pristine);
    EXPECT_TRUE(readV3(path).err.ok());
}

// ---------------------------------------------------------------------
// Seek / resume
// ---------------------------------------------------------------------

namespace {

/** Seek to @p target and verify the remainder against @p ref. */
void
expectSeekTail(TraceV3Source &src, uint64_t target,
               const std::vector<TraceRecord> &ref)
{
    const uint64_t N = ref.size();
    ASSERT_TRUE(src.seekToRecord(target)) << src.error().describe();
    if (target >= N) {
        EXPECT_TRUE(src.done());
        EXPECT_EQ(src.consumed(), 0u);
        return;
    }
    uint64_t i = target;
    while (!src.done()) {
        ASSERT_LT(i, N);
        ASSERT_EQ(canonical(*src.peek()), canonical(ref[size_t(i)]))
            << "record " << i;
        src.advance();
        ++i;
    }
    EXPECT_EQ(i, N) << "seek(" << target << ") tail ended early";
    EXPECT_EQ(src.consumed(), N - target);
    EXPECT_TRUE(src.ok()) << src.error().describe();
}

} // namespace

TEST(TraceV3Seek, AgreesWithSequentialReplayAtEveryBoundary)
{
    const Workload &w = findWorkload("crafty");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t N = 2700;
    const std::string path = ::testing::TempDir() + "seek.rpl3";
    V3Options opts;
    opts.chunkRecords = 512;
    TraceV3Writer::dumpProgram(prog, N, path, opts);
    const auto ref = collectTrace(prog, N);

    // Chunk boundaries, mid-chunk, first/last, EOF, past-EOF.
    const uint64_t targets[] = {0,    1,    511,  512, 513, 1024,
                                2047, 2559, 2699, N,   N + 4242};
    for (const uint64_t t : targets) {
        SCOPED_TRACE(t);
        clearTraceQuarantine();
        TraceV3Source src(path);
        ASSERT_TRUE(src.ok()) << src.error().describe();
        expectSeekTail(src, t, ref);
    }
}

TEST(TraceV3Seek, ReSeekOnTheSameSourceForwardAndBackward)
{
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t N = 2048;
    const std::string path = ::testing::TempDir() + "reseek.rpl3";
    V3Options opts;
    opts.chunkRecords = 256;
    TraceV3Writer::dumpProgram(prog, N, path, opts);
    const auto ref = collectTrace(prog, N);

    clearTraceQuarantine();
    TraceV3Source src(path);
    ASSERT_TRUE(src.ok());

    // Read a prefix sequentially, jump ahead, then rewind behind the
    // already-recycled window — each tail must match the reference.
    for (unsigned i = 0; i < 300; ++i)
        src.advance();
    expectSeekTail(src, 1536, ref);    // forward, chunk boundary
    expectSeekTail(src, 100, ref);     // backward, mid-first-chunk
    expectSeekTail(src, N - 1, ref);   // last record
    expectSeekTail(src, 0, ref);       // full rewind
}

TEST(TraceV3Seek, ResumesAfterTransientFaultAtChunkBoundary)
{
    const Workload &w = findWorkload("parser");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t N = 2048;
    const std::string path = ::testing::TempDir() + "seekfault.rpl3";
    V3Options opts;
    opts.chunkRecords = 512;
    TraceV3Writer::dumpProgram(prog, N, path, opts);
    const auto ref = collectTrace(prog, N);

    clearTraceQuarantine();
    TraceV3Source src(path);
    ASSERT_TRUE(src.ok());

    // One injected transient fault on the first chunk load after the
    // seek: the retry must absorb it and resume the identical stream
    // from the boundary.
    unsigned fires = 1;
    src.setIoFaultInjector([&fires] {
        if (fires) {
            --fires;
            return true;
        }
        return false;
    });
    expectSeekTail(src, 1536, ref);
    EXPECT_EQ(src.ioRetries(), 1u);
    EXPECT_FALSE(traceQuarantined(path));
}

// ---------------------------------------------------------------------
// Fault injection: transient retry, persistent quarantine
// ---------------------------------------------------------------------

TEST(TraceV3Faults, TransientFaultsRetriedToFullStream)
{
    const Workload &w = findWorkload("gzip");
    const std::string path = ::testing::TempDir() + "v3transient.rpl3";
    V3Options opts;
    opts.chunkRecords = 64;     // many chunk loads => many fault draws
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1500, path, opts);

    clearTraceQuarantine();
    TraceV3Source src(path);
    Rng rng(42);
    src.setIoFaultInjector([&rng] { return rng.chance(0.15); });
    uint64_t n = 0;
    while (!src.done()) {
        src.advance();
        ++n;
    }
    EXPECT_TRUE(src.ok()) << src.error().describe();
    EXPECT_EQ(n, 1500u);
    EXPECT_GT(src.ioRetries(), 0u);
    EXPECT_FALSE(traceQuarantined(path));
}

TEST(TraceV3Faults, PersistentFaultReadsErrorAndQuarantines)
{
    clearTraceQuarantine();
    const Workload &w = findWorkload("gzip");
    const std::string path = ::testing::TempDir() + "v3persistent.rpl3";
    TraceV3Writer::dumpProgram(w.buildProgram(0), 800, path);

    TraceV3Source src(path);
    src.setIoFaultInjector([] { return true; });
    while (!src.done())
        src.advance();
    EXPECT_EQ(src.error().kind, Kind::READ_ERROR);
    EXPECT_EQ(src.ioRetries(), TraceV3Source::MAX_READ_RETRIES);
    EXPECT_EQ(src.error().path, path);
    EXPECT_EQ(src.error().chunkIndex, 0);
    EXPECT_TRUE(traceQuarantined(path));

    // Session quarantine: the next open fails fast.
    TraceV3Source again(path);
    EXPECT_EQ(again.error().kind, Kind::QUARANTINED);
    EXPECT_TRUE(again.done());
    EXPECT_EQ(again.ioRetries(), 0u);

    clearTraceQuarantine();
    TraceV3Source clean(path);
    EXPECT_TRUE(clean.ok());
}

// ---------------------------------------------------------------------
// TraceError diagnostics: path + byte offset + chunk index, and their
// describe() rendering.
// ---------------------------------------------------------------------

TEST(TraceV3Diagnostics, ErrorsCarryPathOffsetAndChunk)
{
    const Workload &w = findWorkload("gzip");
    const std::string path = ::testing::TempDir() + "diag.rpl3";
    V3Options opts;
    opts.chunkRecords = 512;
    opts.codec = V3Codec::RAW;
    TraceV3Writer::dumpProgram(w.buildProgram(0), 1500, path, opts);
    const V3Info info = inspectV3(path);
    ASSERT_TRUE(info.ok());
    ASSERT_GE(info.chunks.size(), 2u);

    const uint64_t payload_off =
        info.chunks[1].offset + v4::CHUNK_HEADER_BYTES;
    ASSERT_TRUE(FaultInjector::flipByteAt(path, payload_off + 37));

    clearTraceQuarantine();
    TraceV3Source src(path);
    while (!src.done())
        src.advance();
    const TraceError &err = src.error();
    EXPECT_EQ(err.kind, Kind::BAD_CHECKSUM);
    EXPECT_EQ(err.path, path);
    EXPECT_EQ(err.byteOffset, payload_off);
    EXPECT_EQ(err.chunkIndex, 1);

    const std::string text = err.describe();
    EXPECT_NE(text.find(path), std::string::npos) << text;
    EXPECT_NE(text.find("@byte " + std::to_string(payload_off)),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("chunk 1"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Corpus manifest round-trip on v3 containers
// ---------------------------------------------------------------------

TEST(TraceV3Corpus, ManifestRoundTripsAndPinsDigests)
{
    const std::string dir = ::testing::TempDir();
    const std::string manifest = dir + "corpus_t.json";
    std::vector<CorpusEntry> entries;
    for (const char *name : {"gzip", "excel"}) {
        const Workload &w = findWorkload(name);
        for (unsigned t = 0; t < w.numTraces; ++t) {
            const x86::Program prog = w.buildProgram(t);
            CorpusEntry e;
            e.id = std::string(name) + "." + std::to_string(t);
            e.workload = name;
            e.traceIdx = t;
            e.records = 600;
            e.file = "corpus_t." + e.id + ".rpl3";
            TraceV3Writer::dumpProgram(prog, 600, dir + e.file);
            ExecutorTraceSource live(prog, 600);
            e.digest = wire::streamDigest(live);
            entries.push_back(e);
        }
    }
    const TraceError werr = writeCorpusManifest(manifest, entries);
    ASSERT_TRUE(werr.ok()) << werr.describe();

    clearTraceQuarantine();
    const TraceCorpus corpus = TraceCorpus::load(manifest);
    ASSERT_TRUE(corpus.ok()) << corpus.error().describe();
    ASSERT_EQ(corpus.size(), entries.size());

    for (const CorpusEntry &want : entries) {
        const CorpusEntry *got = corpus.findById(want.id);
        ASSERT_NE(got, nullptr) << want.id;
        EXPECT_EQ(got->records, want.records);
        EXPECT_EQ(got->digest, want.digest);

        TraceError err;
        auto src = corpus.open(*got, 0, &err);
        ASSERT_NE(src, nullptr) << err.describe();
        EXPECT_EQ(wire::streamDigest(*src), want.digest);
    }

    // A recording shorter than the requested budget is a miss — the
    // caller must synthesize instead of replaying a prefix.
    EXPECT_NE(corpus.find("gzip", 0, 600), nullptr);
    EXPECT_EQ(corpus.find("gzip", 0, 601), nullptr);
    EXPECT_EQ(corpus.find("gzip", 99, 1), nullptr);
    EXPECT_EQ(corpus.find("nosuch", 0, 1), nullptr);

    // A damaged container is an open() error, pinned by the manifest.
    const CorpusEntry *victim = corpus.findById("excel.1");
    ASSERT_NE(victim, nullptr);
    ASSERT_TRUE(FaultInjector::truncateFile(
        corpus.resolvePath(*victim),
        std::filesystem::file_size(corpus.resolvePath(*victim)) - 10));
    TraceError err;
    EXPECT_EQ(corpus.open(*victim, 0, &err), nullptr);
    EXPECT_EQ(err.kind, Kind::TRUNCATED);
}
