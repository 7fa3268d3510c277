/**
 * @file
 * Trace ingest bandwidth: v2 flat container (batched fread + per-record
 * FNV) vs the v4 chunked container (static table + compact records),
 * raw and zlib codecs.
 *
 * This is the microbench behind the chunked-container design claim
 * (DESIGN.md): the word-at-a-time chunk checksum plus the compact
 * record decode must ingest at least 2x the records/s of the v2 fread
 * path.  The same number feeds the perfgate `trace_ingest_mbps`
 * metric; EXPERIMENTS.md carries a measured before/after table.
 *
 * REPLAY_SIM_INSTS overrides the per-container record count.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "trace/chunk.hh"
#include "trace/tracefile.hh"
#include "trace/tracer.hh"
#include "trace/tracev3.hh"
#include "trace/workload.hh"
#include "util/logging.hh"

using namespace replay;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Row
{
    std::string name;
    double recordsPerSec = 0;
    double mbPerSec = 0;        ///< decoded record bytes per second
    uint64_t fileBytes = 0;
};

/** Best-of-three full drains of whatever @p open returns. */
Row
measure(const std::string &name, uint64_t records, uint64_t file_bytes,
        const std::function<std::unique_ptr<trace::TraceSource>()> &open)
{
    Row row;
    row.name = name;
    row.fileBytes = file_bytes;
    for (int pass = 0; pass < 4; ++pass) {    // pass 0 warms the cache
        trace::clearTraceQuarantine();
        auto src = open();
        fatal_if(!src, "%s: cannot open container", name.c_str());
        const double t0 = now();
        while (!src->done())
            src->advance();
        const double dt = now() - t0;
        fatal_if(src->consumed() != records,
                 "%s: delivered %llu of %llu records", name.c_str(),
                 (unsigned long long)src->consumed(),
                 (unsigned long long)records);
        if (pass > 0 && dt > 0)
            row.recordsPerSec =
                std::max(row.recordsPerSec, double(records) / dt);
    }
    row.mbPerSec = row.recordsPerSec * trace::wire::recordWireBytes() / 1e6;
    return row;
}

} // namespace

int
main()
{
    uint64_t records = 200000;
    if (const char *env = std::getenv("REPLAY_SIM_INSTS"))
        records = std::strtoull(env, nullptr, 0);

    const auto &w = trace::findWorkload("crafty");
    const auto prog = w.buildProgram(0);
    const std::string dir =
        std::filesystem::temp_directory_path().string() + "/";
    const std::string v2_path = dir + "bench_ingest.rplt";
    const std::string raw_path = dir + "bench_ingest_raw.rpl3";
    const std::string zlib_path = dir + "bench_ingest_zlib.rpl3";

    std::printf("trace ingest bandwidth: %llu records of %s "
                "(%zu wire bytes each)\n\n",
                (unsigned long long)records, w.name.c_str(),
                trace::wire::recordWireBytes());

    trace::TraceFileWriter::dumpProgram(prog, records, v2_path);
    trace::V3Options raw_opts;
    raw_opts.codec = trace::V3Codec::RAW;
    trace::TraceV3Writer::dumpProgram(prog, records, raw_path, raw_opts);
    if (trace::v3ZlibAvailable()) {
        trace::V3Options z;
        z.codec = trace::V3Codec::ZLIB;
        trace::TraceV3Writer::dumpProgram(prog, records, zlib_path, z);
    }

    const auto file_bytes = [](const std::string &p) {
        return uint64_t(std::filesystem::file_size(p));
    };

    std::vector<Row> rows;
    rows.push_back(measure(
        "v2 fread", records, file_bytes(v2_path), [&] {
            return std::unique_ptr<trace::TraceSource>(
                new trace::FileTraceSource(v2_path));
        }));
    rows.push_back(measure(
        "v4 raw", records, file_bytes(raw_path), [&] {
            return std::unique_ptr<trace::TraceSource>(
                new trace::TraceV3Source(raw_path));
        }));
    if (trace::v3ZlibAvailable()) {
        rows.push_back(measure(
            "v4 zlib", records, file_bytes(zlib_path), [&] {
                return std::unique_ptr<trace::TraceSource>(
                    new trace::TraceV3Source(zlib_path));
            }));
    }

    std::printf("%-18s %14s %10s %14s\n", "path", "records/s", "MB/s",
                "container B");
    for (const Row &row : rows)
        std::printf("%-18s %14.0f %10.1f %14llu\n", row.name.c_str(),
                    row.recordsPerSec, row.mbPerSec,
                    (unsigned long long)row.fileBytes);

    const double ratio = rows[1].recordsPerSec / rows[0].recordsPerSec;
    std::printf("\nv4 raw / v2 fread: %.2fx %s\n", ratio,
                ratio >= 2.0 ? "(meets the >=2x ingest target)"
                             : "(BELOW the >=2x ingest target)");

    for (const std::string &p : {v2_path, raw_path, zlib_path}) {
        std::error_code ec;
        std::filesystem::remove(p, ec);
    }
    return ratio >= 2.0 ? 0 : 1;
}
