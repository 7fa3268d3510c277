/**
 * @file
 * tracec — trace-container companion tool.
 *
 * One CLI for everything that touches trace containers outside the
 * simulator:
 *
 *   record <workload> <hotspot> <insts> <out>   synthesize + record v4
 *   convert <in> <out>                          v4 → v4 (re-encode with
 *                                               another codec/chunk size)
 *   verify <file...>                            full read + digest
 *   inspect <file...>                           geometry, static table,
 *                                               bytes per record
 *   index <file>                                dump the chunk index
 *   corpus-build <dir> --insts N                record all workloads,
 *                                               write corpus.json
 *   corpus-verify <manifest>                    re-digest every entry
 *
 * Shared flags for writers: --codec raw|zlib, --chunk N (records per
 * chunk).
 *
 * verify and corpus-verify exit non-zero on the first mismatch, so
 * they are usable as CI gates; verify prints the container-independent
 * stream digest (wire::streamDigest) that corpus manifests pin.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "sim/runner.hh"
#include "trace/chunk.hh"
#include "trace/corpus.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/logging.hh"

using namespace replay;
using trace::TraceError;

namespace {

int
usage()
{
    std::fprintf(
        stderr,
        "usage: tracec <command> [args]\n"
        "  record <workload> <hotspot> <insts> <out> "
        "[--codec raw|zlib] [--chunk N]\n"
        "  convert <in> <out> [--codec raw|zlib] [--chunk N]\n"
        "  verify <file...>\n"
        "  inspect <file...>\n"
        "  index <file>\n"
        "  corpus-build <dir> --insts N [--workloads a,b] "
        "[--codec raw|zlib] [--chunk N]\n"
        "  corpus-verify <manifest>\n");
    return 2;
}

/** Pull writer flags out of @p args (consuming them). */
bool
parseWriterFlags(std::vector<std::string> &args, trace::V3Options &flags)
{
    std::vector<std::string> rest;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--codec") {
            if (++i >= args.size())
                return false;
            if (args[i] == "raw") {
                flags.codec = trace::V3Codec::RAW;
            } else if (args[i] == "zlib") {
                if (!trace::v3ZlibAvailable()) {
                    std::fprintf(stderr,
                                 "tracec: this build has no zlib\n");
                    return false;
                }
                flags.codec = trace::V3Codec::ZLIB;
            } else {
                return false;
            }
        } else if (args[i] == "--chunk") {
            if (++i >= args.size())
                return false;
            flags.chunkRecords =
                unsigned(sim::parseCount(args[i].c_str(), "--chunk"));
        } else {
            rest.push_back(args[i]);
        }
    }
    args = std::move(rest);
    return true;
}

/** Copy @p src to @p out under @p flags; returns records written. */
uint64_t
writeStream(trace::TraceSource &src, const std::string &out,
            const trace::V3Options &flags, TraceError &err)
{
    trace::TraceV3Writer writer(out, flags);
    while (!src.done()) {
        writer.write(*src.peek());
        src.advance();
    }
    const uint64_t n = writer.written();
    err = writer.close();
    return n;
}

int
cmdRecord(std::vector<std::string> args, const trace::V3Options &flags)
{
    if (args.size() != 4)
        return usage();
    const trace::Workload &workload = trace::findWorkload(args[0]);
    char *end = nullptr;
    const unsigned hotspot =
        unsigned(std::strtoul(args[1].c_str(), &end, 10));
    fatal_if(!end || *end != '\0', "malformed hotspot '%s'",
             args[1].c_str());
    const uint64_t insts = sim::parseCount(args[2].c_str(), "insts");
    fatal_if(hotspot >= workload.numTraces,
             "workload %s has %u hot spots", workload.name.c_str(),
             workload.numTraces);

    auto src = workload.openTrace(hotspot, insts);
    TraceError err;
    const uint64_t n = writeStream(*src, args[3], flags, err);
    if (!err.ok()) {
        std::fprintf(stderr, "tracec: %s\n", err.describe().c_str());
        return 1;
    }
    std::printf("recorded %llu records of %s.%u to %s\n",
                (unsigned long long)n, workload.name.c_str(), hotspot,
                args[3].c_str());
    return 0;
}

int
cmdConvert(std::vector<std::string> args, const trace::V3Options &flags)
{
    if (args.size() != 2)
        return usage();
    trace::TraceV3Source src(args[0]);
    if (!src.ok()) {
        std::fprintf(stderr, "tracec: %s\n",
                     src.error().describe().c_str());
        return 1;
    }
    TraceError err;
    const uint64_t n = writeStream(src, args[1], flags, err);
    // Damage ends the source's stream early: the copy would be a
    // silently shortened trace, so the source's verdict wins.
    if (!src.error().ok())
        err = src.error();
    if (!err.ok()) {
        std::fprintf(stderr, "tracec: %s\n", err.describe().c_str());
        std::error_code ec;
        std::filesystem::remove(args[1], ec);
        return 1;
    }
    std::printf("converted %llu records %s -> %s\n",
                (unsigned long long)n, args[0].c_str(),
                args[1].c_str());
    return 0;
}

/** Full sequential read; fills digest/records, false on any error. */
bool
verifyOne(const std::string &path, uint64_t &records, uint64_t &digest,
          TraceError &err)
{
    trace::TraceV3Source src(path);
    digest = trace::wire::streamDigest(src);
    records = src.consumed();
    // An open failure reads as an empty stream; mid-file damage ends
    // the stream early.  Either way the source holds the verdict.
    err = src.error();
    return err.ok();
}

int
cmdVerify(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    int rc = 0;
    for (const std::string &path : args) {
        uint64_t records = 0, digest = 0;
        TraceError err;
        if (verifyOne(path, records, digest, err)) {
            std::printf("%s: ok, %llu records, digest %s\n",
                        path.c_str(), (unsigned long long)records,
                        trace::corpusDigestHex(digest).c_str());
        } else {
            std::printf("%s: FAILED after %llu records: %s\n",
                        path.c_str(), (unsigned long long)records,
                        err.describe().c_str());
            rc = 1;
        }
    }
    return rc;
}

int
cmdInspect(const std::vector<std::string> &args)
{
    if (args.empty())
        return usage();
    int rc = 0;
    for (const std::string &path : args) {
        const trace::V3Info info = trace::inspectV3(path);
        if (!info.ok()) {
            std::printf("%s: %s\n", path.c_str(),
                        info.error.describe().c_str());
            rc = 1;
            continue;
        }
        // Per-record bytes are the deterministic ingest work counter:
        // "raw" is what every replay inflates and decodes, "stored"
        // is the whole file.
        const double recs =
            info.recordCount ? double(info.recordCount) : 1.0;
        std::printf(
            "%s: v4, %llu records, codec %s, %zu chunks of %u records\n"
            "  static table: %u entries, %llu raw -> %u stored bytes\n"
            "  chunk payloads: %llu raw -> %llu stored bytes\n"
            "  per record: %.2f raw bytes, %.2f stored bytes "
            "(%llu file bytes)\n",
            path.c_str(), (unsigned long long)info.recordCount,
            v3CodecName(info.codec), info.chunks.size(),
            info.chunkRecords, info.staticCount,
            (unsigned long long)info.staticCount * info.recordBytes,
            info.staticBytes, (unsigned long long)info.rawBytes(),
            (unsigned long long)info.payloadBytes(),
            double(info.rawBytes()) / recs,
            double(info.fileBytes) / recs,
            (unsigned long long)info.fileBytes);
    }
    return rc;
}

int
cmdIndex(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    const trace::V3Info info = trace::inspectV3(args[0]);
    if (!info.ok()) {
        std::fprintf(stderr, "tracec: %s\n",
                     info.error.describe().c_str());
        return 1;
    }
    std::printf("%-6s %-12s %-12s %-10s %-10s %-10s %s\n", "chunk",
                "offset", "first_rec", "records", "raw", "payload",
                "checksum");
    for (size_t i = 0; i < info.chunks.size(); ++i) {
        const auto &c = info.chunks[i];
        std::printf("%-6zu %-12llu %-12llu %-10u %-10u %-10u %08x\n", i,
                    (unsigned long long)c.offset,
                    (unsigned long long)c.firstRecord, c.records,
                    c.rawBytes, c.payloadBytes, c.checksum);
    }
    std::printf("static table at byte %llu, %u entries\n",
                (unsigned long long)info.staticOffset, info.staticCount);
    std::printf("index at byte %llu, %zu entries\n",
                (unsigned long long)info.indexOffset,
                info.chunks.size());
    return 0;
}

int
cmdCorpusBuild(std::vector<std::string> args,
               const trace::V3Options &flags)
{
    uint64_t insts = 0;
    std::vector<std::string> only;
    std::vector<std::string> rest;
    for (size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--insts") {
            if (++i >= args.size())
                return usage();
            insts = sim::parseCount(args[i].c_str(), "--insts");
        } else if (args[i] == "--workloads") {
            if (++i >= args.size())
                return usage();
            std::string list = args[i];
            size_t start = 0;
            while (start <= list.size()) {
                const size_t comma = list.find(',', start);
                const size_t end =
                    comma == std::string::npos ? list.size() : comma;
                if (end > start)
                    only.push_back(list.substr(start, end - start));
                if (comma == std::string::npos)
                    break;
                start = comma + 1;
            }
        } else {
            rest.push_back(args[i]);
        }
    }
    if (rest.size() != 1 || insts == 0)
        return usage();
    const std::string dir = rest[0];
    std::error_code dir_ec;
    std::filesystem::create_directories(dir, dir_ec);
    if (dir_ec) {
        std::fprintf(stderr, "tracec: cannot create '%s': %s\n",
                     dir.c_str(), dir_ec.message().c_str());
        return 1;
    }

    // A typo'd --workloads name must not silently shrink the corpus.
    for (const std::string &name : only) {
        bool known = false;
        for (const trace::Workload &w : trace::standardWorkloads())
            known = known || name == w.name;
        if (!known) {
            std::fprintf(stderr, "tracec: unknown workload '%s'\n",
                         name.c_str());
            return 1;
        }
    }

    std::vector<trace::CorpusEntry> entries;
    for (const trace::Workload &w : trace::standardWorkloads()) {
        if (!only.empty()) {
            bool selected = false;
            for (const std::string &name : only)
                selected = selected || name == w.name;
            if (!selected)
                continue;
        }
        for (unsigned t = 0; t < w.numTraces; ++t) {
            trace::CorpusEntry entry;
            entry.id = w.name + "." + std::to_string(t);
            entry.workload = w.name;
            entry.traceIdx = t;
            entry.file = entry.id + ".rpl3";
            const std::string path = dir + "/" + entry.file;

            auto rec_src = w.openTrace(t, insts);
            TraceError err;
            entry.records = writeStream(*rec_src, path, flags, err);
            if (!err.ok()) {
                std::fprintf(stderr, "tracec: %s\n",
                             err.describe().c_str());
                return 1;
            }
            // Digest the authoritative stream (the synthesizer), not
            // the file we just wrote: corpus-verify then proves the
            // recording reproduces it.
            auto dig_src = w.openTrace(t, insts);
            entry.digest = trace::wire::streamDigest(*dig_src);
            std::printf("%-12s %llu records -> %s\n", entry.id.c_str(),
                        (unsigned long long)entry.records,
                        path.c_str());
            entries.push_back(std::move(entry));
        }
    }

    const std::string manifest = dir + "/corpus.json";
    const TraceError err =
        trace::writeCorpusManifest(manifest, entries);
    if (!err.ok()) {
        std::fprintf(stderr, "tracec: %s\n", err.describe().c_str());
        return 1;
    }
    std::printf("wrote %zu entries to %s\n", entries.size(),
                manifest.c_str());
    return 0;
}

int
cmdCorpusVerify(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();
    const trace::TraceCorpus corpus = trace::TraceCorpus::load(args[0]);
    if (!corpus.ok()) {
        std::fprintf(stderr, "tracec: %s\n",
                     corpus.error().describe().c_str());
        return 1;
    }
    int rc = 0;
    for (const trace::CorpusEntry &entry : corpus.entries()) {
        uint64_t records = 0, digest = 0;
        TraceError err;
        const std::string path = corpus.resolvePath(entry);
        if (!verifyOne(path, records, digest, err)) {
            std::printf("%-12s FAILED: %s\n", entry.id.c_str(),
                        err.describe().c_str());
            rc = 1;
        } else if (records != entry.records ||
                   digest != entry.digest) {
            std::printf("%-12s STALE: %llu records digest %s, "
                        "manifest pins %llu / %s\n",
                        entry.id.c_str(), (unsigned long long)records,
                        trace::corpusDigestHex(digest).c_str(),
                        (unsigned long long)entry.records,
                        trace::corpusDigestHex(entry.digest).c_str());
            rc = 1;
        } else {
            std::printf("%-12s ok (%llu records, digest %s)\n",
                        entry.id.c_str(), (unsigned long long)records,
                        trace::corpusDigestHex(digest).c_str());
        }
    }
    return rc;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    trace::V3Options flags;
    if (!parseWriterFlags(args, flags))
        return usage();

    if (cmd == "record")
        return cmdRecord(std::move(args), flags);
    if (cmd == "convert")
        return cmdConvert(std::move(args), flags);
    if (cmd == "verify")
        return cmdVerify(args);
    if (cmd == "inspect")
        return cmdInspect(args);
    if (cmd == "index")
        return cmdIndex(args);
    if (cmd == "corpus-build")
        return cmdCorpusBuild(std::move(args), flags);
    if (cmd == "corpus-verify")
        return cmdCorpusVerify(args);
    return usage();
}
