/**
 * @file
 * The traced run: drives each hot-spot trace of a workload through the
 * public entry points of every simulator module, one span per (input,
 * layer), and turns the span totals into per-layer metrics.
 *
 * Nothing here reaches inside the simulator.  Each layer is timed
 * around a loop of calls into its public functions, over records
 * materialized once per input, so the layers can be compared one
 * against another and against the untimed sweep:
 *
 *   trace.synth / trace.ingest   drain Workload::openTrace or
 *                                TraceCorpus::open with no simulation
 *   uop.translate                Translator::translate per record
 *   core.construct               FrameConstructor::observe per record
 *   core.engine                  RePlayEngine::observeRetired per record
 *   core.fcache                  FrameCache::lookup per record plus
 *                                FrameCache::insert per new frame
 *   opt.pipeline                 Optimizer::optimize per candidate
 *   opt.remap, opt.<pass>        Remapper::remap and the pass functions
 *                                of opt/passes.hh, batched per pass
 *   sim.<machine>                simulateTrace over an in-memory source
 *
 * The timing model has no public entry point of its own; its cost is
 * taken by subtraction (sim.IC minus uop.translate) in layerMetrics().
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>

#include "bench.hh"
#include "core/aliasprofile.hh"
#include "core/constructor.hh"
#include "core/framecache.hh"
#include "core/sequencer.hh"
#include "opt/optimizer.hh"
#include "opt/passes.hh"
#include "opt/remapper.hh"
#include "sim/simulator.hh"
#include "trace/chunk.hh"
#include "uop/translator.hh"

namespace perfbench {

using namespace replay;

// --- SpanLog -------------------------------------------------------------

int64_t
SpanLog::begin(const std::string &name, int64_t parent,
               const std::string &input)
{
    Span span;
    span.id = int64_t(spans_.size());
    span.parent = parent;
    span.name = name;
    span.input = input;
    span.startNs = nowNs() - epoch_;
    spans_.push_back(std::move(span));
    return spans_.back().id;
}

void
SpanLog::end(int64_t id, uint64_t items, const char *unit)
{
    Span &span = spans_[size_t(id)];
    span.endNs = nowNs() - epoch_;
    span.items = items;
    span.unit = unit;
}

std::vector<uint64_t>
SpanLog::selfNs() const
{
    std::vector<uint64_t> self(spans_.size());
    for (const Span &s : spans_)
        self[size_t(s.id)] = s.durationNs();
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        uint64_t &parent = self[size_t(s.parent)];
        parent -= std::min(parent, s.durationNs());
    }
    return self;
}

bool
SpanLog::write(const std::string &path) const
{
    const std::vector<uint64_t> self = selfNs();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"run_id\": \"" << runId_ << "\", \"workload\": \""
        << workload_ << "\", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": \"" << s.name << "\", \"workload\": \""
            << workload_ << "\", \"input\": \"" << s.input
            << "\", \"run_id\": \"" << runId_
            << "\", \"start_ns\": " << s.startNs
            << ", \"end_ns\": " << s.endNs
            << ", \"self_ns\": " << self[i]
            << ", \"items\": " << s.items << ", \"unit\": \"" << s.unit
            << "\"}" << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    out << "]}\n";
    return bool(out.flush());
}

// --- LayerTotals -----------------------------------------------------------

LayerTotals::Entry &
LayerTotals::at(const std::string &name)
{
    for (Entry &e : entries)
        if (e.name == name)
            return e;
    entries.push_back({name, 0, 0});
    return entries.back();
}

uint64_t
LayerTotals::ns(const std::string &name) const
{
    for (const Entry &e : entries)
        if (e.name == name)
            return e.ns;
    return 0;
}

uint64_t
LayerTotals::items(const std::string &name) const
{
    for (const Entry &e : entries)
        if (e.name == name)
            return e.items;
    return 0;
}

namespace {

/** Keeps drained values observable so the loops are not elided. */
volatile uint64_t sink;

/** Consume @p src; returns the record count. */
uint64_t
drain(trace::TraceSource &src)
{
    uint64_t n = 0, acc = 0;
    while (!src.done()) {
        acc += src.peek()->pc;
        src.advance();
        ++n;
    }
    sink = acc;
    return n;
}

std::vector<trace::TraceRecord>
collect(trace::TraceSource &src, uint64_t reserve)
{
    std::vector<trace::TraceRecord> records;
    records.reserve(reserve);
    while (!src.done()) {
        records.push_back(*src.peek());
        src.advance();
    }
    return records;
}

/** A frame candidate kept for the optimizer and frame-cache layers. */
struct Candidate
{
    size_t emittedAt = 0;   ///< index of the record that closed it
    core::FramePtr frame;   ///< body filled by opt.pipeline
    std::vector<uop::Uop> uops;
    std::vector<uint16_t> blocks;
};

/** The pipeline of opt/optimizer.cc, one pass function at a time. */
struct PassFn
{
    const char *span;
    unsigned (*run)(opt::OptContext &);
};

constexpr PassFn PASSES[] = {
    {"opt.nop", opt::passNopRemoval},   {"opt.asst", opt::passAssertCombine},
    {"opt.cp", opt::passConstProp},     {"opt.ra", opt::passReassociate},
    {"opt.cse", opt::passCse},          {"opt.sf", opt::passStoreForward},
    {"opt.dce", opt::passDce},
};

/** Frames remapped and optimized together, one span per pass. */
constexpr size_t PASS_BATCH = 128;

} // anonymous namespace

LayerTotals
runTracedRep(const TracedSetup &setup, SpanLog &log, int64_t parent)
{
    LayerTotals t;
    const uint64_t insts = setup.instsPerTrace;

    for (const LayerInput &in : setup.inputs) {
        const std::string id = in.id();
        const int64_t input_span = log.begin("input", parent, id);
        bool ok = true;
        ++t.inputs;

        // Open a layer span, run @p body (returns items covered), close
        // it and fold it into the totals.
        auto layer = [&](const std::string &name, int64_t under,
                         const char *unit, auto &&body) -> int64_t {
            const int64_t span = log.begin(name, under, id);
            const uint64_t items = body();
            log.end(span, items, unit);
            LayerTotals::Entry &e = t.at(name);
            e.ns += log.spans()[size_t(span)].durationNs();
            e.items += items;
            return span;
        };

        // --- trace: produce the records, timed without simulation ----
        std::vector<trace::TraceRecord> records;
        if (setup.corpus) {
            const trace::CorpusEntry *entry = setup.corpus->find(
                in.workload->name, in.traceIdx, insts);
            auto open = [&]() -> std::unique_ptr<trace::TraceSource> {
                trace::TraceError err;
                return entry ? setup.corpus->open(*entry, insts, &err)
                             : nullptr;
            };
            uint64_t drained = 0;
            layer("trace.ingest", input_span, "records", [&] {
                auto src = open();
                drained = src ? drain(*src) : 0;
                return drained;
            });
            ok = ok && drained == insts;
            t.ingestBytes += drained * trace::wire::recordWireBytes();
            layer("bench.collect", input_span, "records", [&] {
                if (auto src = open())
                    records = collect(*src, insts);
                return uint64_t(records.size());
            });
        } else {
            uint64_t drained = 0;
            layer("trace.synth", input_span, "records", [&] {
                auto src = in.workload->openTrace(in.traceIdx, insts);
                drained = drain(*src);
                return drained;
            });
            ok = ok && drained == insts;
            layer("bench.collect", input_span, "records", [&] {
                auto src = in.workload->openTrace(in.traceIdx, insts);
                records = collect(*src, insts);
                return uint64_t(records.size());
            });
        }
        ok = ok && records.size() == insts;
        const uint64_t n = records.size();
        t.records += n;

        // --- uop: decode every retired instruction -------------------
        layer("uop.translate", input_span, "insts", [&] {
            const uop::Translator translator;
            std::vector<uop::Uop> flow;
            uint64_t uops = 0;
            for (const auto &rec : records) {
                flow.clear();
                uops += translator.translate(rec.inst, rec.pc,
                                             rec.pc + rec.length, flow);
            }
            t.translateUops += uops;
            return n;
        });

        // --- core: construction alone, then the whole engine ---------
        layer("core.construct", input_span, "insts", [&] {
            core::FrameConstructor constructor;
            for (const auto &rec : records)
                if (auto cand = constructor.observe(rec))
                    constructor.recycle(std::move(*cand));
            return n;
        });
        layer("core.engine", input_span, "insts", [&] {
            core::RePlayEngine engine;
            for (size_t i = 0; i < records.size(); ++i)
                engine.observeRetired(records[i], i);
            engine.drainReady(n);
            t.engineCandidates +=
                engine.constructor().candidatesEmitted();
            t.engineDuplicates +=
                engine.stats().get("duplicate_candidates");
            return n;
        });

        // The candidates the engine would build, and their alias
        // profile, for the optimizer and frame-cache layers.  Like the
        // engine, skip a candidate no longer than one already built at
        // its start PC.  Harness work, kept out of every layer span.
        std::vector<Candidate> cands;
        core::AliasProfile profile;
        layer("bench.candidates", input_span, "frames", [&] {
            core::FrameConstructor constructor;
            std::unordered_map<uint32_t, size_t> longest;
            for (size_t i = 0; i < records.size(); ++i) {
                auto cand = constructor.observe(records[i]);
                if (!cand)
                    continue;
                size_t &len = longest[cand->startPc];
                if (len >= cand->pcs.size()) {
                    constructor.recycle(std::move(*cand));
                    continue;
                }
                len = cand->pcs.size();
                profile.observeInstance(cand->records);
                Candidate c;
                c.emittedAt = i;
                c.frame = std::make_shared<core::Frame>();
                c.frame->id = cands.size() + 1;
                c.frame->startPc = cand->startPc;
                c.frame->pcs = cand->pcs;
                c.frame->nextPc = cand->nextPc;
                c.frame->dynamicExit = cand->dynamicExit;
                c.frame->numBlocks = cand->numBlocks;
                c.uops = cand->uops;
                c.blocks = cand->blocks;
                cands.push_back(std::move(c));
                constructor.recycle(std::move(*cand));
            }
            return uint64_t(cands.size());
        });

        // --- opt: Optimizer::optimize, then each pass on its own -----
        const opt::Optimizer optimizer;
        opt::OptStats opt_stats;
        layer("opt.pipeline", input_span, "uops", [&] {
            for (Candidate &c : cands) {
                optimizer.optimize(c.uops, c.blocks, &profile, opt_stats,
                                   c.frame->body);
            }
            return opt_stats.inputUops;
        });
        t.optInputUops += opt_stats.inputUops;
        t.optOutputUops += opt_stats.outputUops;

        const int64_t passes_span = log.begin("opt.passes", input_span, id);
        uint64_t manual_out = 0;
        {
            const opt::OptConfig &cfg = optimizer.config();
            const opt::Remapper remapper;
            opt::OptStats stats;
            std::vector<opt::OptBuffer> bufs(PASS_BATCH);
            std::vector<unsigned> changed(PASS_BATCH);
            for (size_t b = 0; b < cands.size(); b += PASS_BATCH) {
                const size_t nb = std::min(PASS_BATCH, cands.size() - b);
                std::vector<size_t> active;
                uint64_t batch_uops = 0;
                layer("opt.remap", passes_span, "uops", [&] {
                    for (size_t j = 0; j < nb; ++j) {
                        const Candidate &c = cands[b + j];
                        remapper.remap(c.uops, c.blocks,
                                       cfg.scope != opt::Scope::FRAME,
                                       bufs[j]);
                        batch_uops += c.uops.size();
                        active.push_back(j);
                    }
                    return batch_uops;
                });
                for (unsigned iter = 0;
                     iter < cfg.maxIterations && !active.empty(); ++iter) {
                    for (const size_t j : active)
                        changed[j] = 0;
                    for (const PassFn &pass : PASSES) {
                        layer(pass.span, passes_span, "uops", [&] {
                            uint64_t uops = 0;
                            for (const size_t j : active) {
                                opt::OptContext ctx{bufs[j], cfg, &profile,
                                                    stats};
                                changed[j] += pass.run(ctx);
                                uops += cands[b + j].uops.size();
                            }
                            return uops;
                        });
                    }
                    std::vector<size_t> still;
                    for (const size_t j : active)
                        if (changed[j])
                            still.push_back(j);
                    active.swap(still);
                }
                for (size_t j = 0; j < nb; ++j)
                    manual_out += bufs[j].validCount();
            }
        }
        log.end(passes_span, opt_stats.inputUops, "uops");
        // The pass-by-pass replay must reach Optimizer::optimize's fixed
        // point.
        ok = ok && manual_out == opt_stats.outputUops;

        // --- core.fcache: probe per record, insert per new frame -----
        layer("core.fcache", input_span, "lookups", [&] {
            core::FrameCache cache;
            size_t next = 0;
            uint64_t insert_ns = 0, inserts = 0;
            for (size_t i = 0; i < records.size(); ++i) {
                for (; next < cands.size() && cands[next].emittedAt == i;
                     ++next) {
                    const uint64_t t0 = nowNs();
                    if (!cache.probe(cands[next].frame->startPc)) {
                        cache.insert(cands[next].frame);
                        ++inserts;
                    }
                    insert_ns += nowNs() - t0;
                }
                sink = cache.lookup(records[i].pc) != nullptr;
            }
            t.fcacheInsertNs += insert_ns;
            t.fcacheInserts += inserts;
            t.fcacheLookups += n;
            t.fcacheEvictions += cache.stats().get("evictions");
            return n;
        });

        // --- sim: every machine over the same in-memory records ------
        for (const sim::Machine m : {sim::Machine::IC, sim::Machine::TC,
                                     sim::Machine::RP, sim::Machine::RPO}) {
            trace::VectorTraceSource src(records);
            sim::RunStats rs;
            layer(std::string("sim.") + sim::machineName(m), input_span,
                  "insts", [&] {
                      rs = sim::simulateTrace(sim::SimConfig::make(m), src,
                                              in.workload->name);
                      return rs.x86Retired;
                  });
            ok = ok && rs.x86Retired == n;
            if (m == sim::Machine::IC)
                t.icUops += rs.uopsExecuted;
        }

        log.end(input_span, n, "records");
        if (!ok) {
            ++t.failedInputs;
            std::fprintf(stderr, "perfbench: traced input %s failed its "
                                 "checks\n",
                         id.c_str());
        }
    }
    return t;
}

std::vector<Metric>
layerMetrics(const LayerTotals &t)
{
    auto per = [](double num, double den) { return den > 0 ? num / den : 0; };
    const double recs = double(t.records);
    const double in_uops = double(t.optInputUops);
    const double ingest_s = double(t.ns("trace.ingest")) / 1e9;

    std::vector<Metric> m;
    m.push_back({"trace.synth.ns_per_rec",
                 per(t.ns("trace.synth"), t.items("trace.synth")), "ns"});
    m.push_back({"trace.ingest.ns_per_rec",
                 per(t.ns("trace.ingest"), t.items("trace.ingest")), "ns"});
    m.push_back({"trace.ingest.mb_per_s",
                 per(double(t.ingestBytes) / 1e6, ingest_s), "MB/s"});
    m.push_back({"uop.translate.ns_per_inst",
                 per(t.ns("uop.translate"), recs), "ns"});
    m.push_back({"uop.translate.uops_per_inst",
                 per(t.translateUops, recs), "uops/inst"});
    m.push_back({"core.construct.ns_per_inst",
                 per(t.ns("core.construct"), recs), "ns"});
    m.push_back({"core.engine.ns_per_inst",
                 per(t.ns("core.engine"), recs), "ns"});
    m.push_back({"core.engine.candidates_per_kinst",
                 per(1000.0 * t.engineCandidates, recs), "1/kinst"});
    m.push_back({"core.engine.duplicate_frac",
                 per(t.engineDuplicates, t.engineCandidates), "ratio"});
    m.push_back({"core.fcache.lookup_ns",
                 per(double(t.ns("core.fcache")) - t.fcacheInsertNs,
                     t.fcacheLookups),
                 "ns"});
    m.push_back({"core.fcache.insert_ns",
                 per(t.fcacheInsertNs, t.fcacheInserts), "ns"});
    m.push_back({"core.fcache.evictions_per_kinst",
                 per(1000.0 * t.fcacheEvictions, recs), "1/kinst"});
    m.push_back({"opt.pipeline.ns_per_uop",
                 per(t.ns("opt.pipeline"), in_uops), "ns"});
    m.push_back({"opt.remap.ns_per_uop", per(t.ns("opt.remap"), in_uops),
                 "ns"});
    for (const PassFn &pass : PASSES) {
        m.push_back({std::string(pass.span) + ".ns_per_uop",
                     per(t.ns(pass.span), in_uops), "ns"});
    }
    m.push_back({"opt.uops_removed_frac",
                 in_uops > 0 ? 1.0 - double(t.optOutputUops) / in_uops : 0,
                 "ratio"});
    for (const char *mach : {"IC", "TC", "RP", "RPO"}) {
        const std::string span = std::string("sim.") + mach;
        m.push_back({span + ".ns_per_inst", per(t.ns(span), recs), "ns"});
    }
    const double timing_ns =
        double(t.ns("sim.IC")) - double(t.ns("uop.translate"));
    m.push_back({"timing.ns_per_uop", per(timing_ns, t.icUops), "ns"});
    return m;
}

} // namespace perfbench
