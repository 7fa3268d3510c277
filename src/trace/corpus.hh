/**
 * @file
 * Trace corpus manifest: named, digest-pinned trace artifacts.
 *
 * The paper's infrastructure treated its hardware trace captures as a
 * *corpus* — a fixed artifact set every experiment replays.  This
 * module is our equivalent: a `corpus.json` manifest mapping each
 * (workload, hot-spot) pair to an on-disk v4 trace container, pinned
 * by record count and a stream digest (wire::streamDigest — the
 * recorded container and the live synthesizer digest identically,
 * whatever the codec or chunk size).
 *
 * Consumers (sweep, replaybench, difforacle) resolve traces through
 * TraceCorpus::find(): a hit replays the recorded container, a miss
 * falls back to live synthesis — and because the digest pins the
 * stream, either path feeds the simulator bit-identical input.  The
 * manifest is built and verified by `tools/tracec` (corpus-build /
 * corpus-verify).
 */

#ifndef REPLAY_TRACE_CORPUS_HH
#define REPLAY_TRACE_CORPUS_HH

#include <memory>
#include <string>
#include <vector>

#include "trace/tracev3.hh"

namespace replay::trace {

/** One manifest row: a pinned trace artifact. */
struct CorpusEntry
{
    std::string id;         ///< unique name, e.g. "gzip.0"
    std::string workload;   ///< Table-1 workload name
    unsigned traceIdx = 0;  ///< hot-spot index within the workload
    uint64_t records = 0;   ///< records the container holds
    uint64_t digest = 0;    ///< wire::streamDigest of the full stream
    std::string file;       ///< container path, relative to manifest
};

/** Loaded corpus.json manifest. */
class TraceCorpus
{
  public:
    /**
     * Parse @p manifest_path.  A missing or malformed manifest yields
     * a corpus with ok() == false; find() on it always misses, so a
     * consumer degrades to synthesis rather than aborting.
     */
    static TraceCorpus load(const std::string &manifest_path);

    bool ok() const { return error_.ok(); }
    const TraceError &error() const { return error_; }

    const std::string &manifestPath() const { return path_; }
    const std::vector<CorpusEntry> &entries() const { return entries_; }
    size_t size() const { return entries_.size(); }

    /**
     * Entry for @p workload hot spot @p trace_idx whose recording is
     * long enough to cover @p min_records (0 = any length).  A trace
     * recorded shorter than the replay budget is a *miss* — the caller
     * synthesizes instead — because a short replay would change the
     * record stream, not just slow it down.
     */
    const CorpusEntry *find(const std::string &workload,
                            unsigned trace_idx,
                            uint64_t min_records = 0) const;

    /** Entry by manifest id. */
    const CorpusEntry *findById(const std::string &id) const;

    /**
     * Open @p entry's container (path resolved against the manifest
     * directory), presenting at most @p limit records (0 = all).
     * Returns nullptr with @p err set when the container is missing,
     * damaged, or holds fewer records than the manifest claims.
     */
    std::unique_ptr<TraceSource> open(const CorpusEntry &entry,
                                      uint64_t limit,
                                      TraceError *err = nullptr) const;

    /** @p entry's container path resolved against the manifest dir. */
    std::string resolvePath(const CorpusEntry &entry) const;

  private:
    std::string path_;
    std::string dir_;       ///< manifest directory ("" = cwd)
    std::vector<CorpusEntry> entries_;
    TraceError error_;
};

/** Serialize @p entries as corpus.json at @p path. */
TraceError writeCorpusManifest(const std::string &path,
                               const std::vector<CorpusEntry> &entries);

/** 16-digit lowercase hex of a stream digest (manifest encoding). */
std::string corpusDigestHex(uint64_t digest);

} // namespace replay::trace

#endif // REPLAY_TRACE_CORPUS_HH
