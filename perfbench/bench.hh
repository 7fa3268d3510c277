/**
 * @file
 * Shared pieces of the benchmark binary: the workload grid a run
 * measures, the in-memory span store of the traced run, and the
 * metric record both run modes print.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/sweep.hh"
#include "trace/corpus.hh"
#include "trace/workload.hh"

namespace perfbench {

/** Monotonic host time in nanoseconds. */
inline uint64_t
nowNs()
{
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now().time_since_epoch())
                        .count());
}

/** One named number with its unit, as printed in the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** One hot-spot trace the traced run drives through every layer. */
struct LayerInput
{
    const replay::trace::Workload *workload = nullptr;
    unsigned traceIdx = 0;

    std::string
    id() const
    {
        return workload->name + "." + std::to_string(traceIdx);
    }
};

/** What the traced run needs to know about the workload under test. */
struct TracedSetup
{
    std::vector<LayerInput> inputs;
    uint64_t instsPerTrace = 0;

    /** Set when the workload replays a corpus instead of synthesizing. */
    const replay::trace::TraceCorpus *corpus = nullptr;
};

/**
 * In-memory span store.  A span is one contiguous interval spent in a
 * layer, with the span that caused it as parent and the number of work
 * items it covered; all spans of a run share the run id.  Nothing is
 * written until write() at the end of the run.
 */
class SpanLog
{
  public:
    SpanLog(std::string workload, std::string run_id)
        : workload_(std::move(workload)), runId_(std::move(run_id)),
          epoch_(nowNs())
    {
    }

    /** Open a span now; returns its id. */
    int64_t begin(const std::string &name, int64_t parent,
                  const std::string &input = "");

    /** Close span @p id now, recording @p items of @p unit. */
    void end(int64_t id, uint64_t items = 0, const char *unit = "");

    struct Span
    {
        int64_t id = 0;
        int64_t parent = -1;
        std::string name;
        std::string input;
        uint64_t startNs = 0;   ///< relative to the log's epoch
        uint64_t endNs = 0;
        uint64_t items = 0;
        std::string unit;

        uint64_t durationNs() const { return endNs - startNs; }
    };

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span: its duration minus its children's. */
    std::vector<uint64_t> selfNs() const;

    /** Write every span as one JSON document; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    std::string workload_;
    std::string runId_;
    uint64_t epoch_;
    std::vector<Span> spans_;
};

/**
 * Totals of one traced repetition over every input, keyed by layer
 * span name ("uop.translate", "opt.cse", ...).
 */
struct LayerTotals
{
    struct Entry
    {
        std::string name;
        uint64_t ns = 0;
        uint64_t items = 0;
    };
    std::vector<Entry> entries;

    /** Simulated and host counts the ratios need. */
    uint64_t records = 0;           ///< trace records per input, summed
    uint64_t translateUops = 0;
    uint64_t icUops = 0;            ///< µops the IC machine executed
    uint64_t engineCandidates = 0;
    uint64_t engineDuplicates = 0;
    uint64_t fcacheInserts = 0;
    uint64_t fcacheInsertNs = 0;
    uint64_t fcacheLookups = 0;
    uint64_t fcacheEvictions = 0;
    uint64_t optInputUops = 0;
    uint64_t optOutputUops = 0;
    uint64_t ingestBytes = 0;

    /** Inputs attempted and failed by the traced run's own checks. */
    uint64_t inputs = 0;
    uint64_t failedInputs = 0;

    Entry &at(const std::string &name);
    uint64_t ns(const std::string &name) const;
    uint64_t items(const std::string &name) const;
};

/**
 * One traced repetition: every input through every layer, one span
 * per (input, layer), under @p parent.
 */
LayerTotals runTracedRep(const TracedSetup &setup, SpanLog &log,
                         int64_t parent);

/** The host-time per-layer metrics of one repetition. */
std::vector<Metric> layerMetrics(const LayerTotals &totals);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
