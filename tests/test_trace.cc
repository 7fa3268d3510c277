/**
 * @file
 * Tests for the trace substrate: record capture, lookahead sources, and
 * statistical properties of the synthesized workloads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "trace/record.hh"
#include "trace/tracer.hh"
#include "trace/workload.hh"
#include "uop/translator.hh"
#include "x86/asmbuilder.hh"

using namespace replay;
using namespace replay::trace;
using x86::AsmBuilder;
using x86::Cond;
using x86::memAt;
using x86::Reg;

TEST(TraceRecord, CapturesMemOpsAndRegWrites)
{
    AsmBuilder b;
    b.pushI(0x99);
    b.jmp("x");
    b.label("x");
    const x86::Program prog = b.build();
    const auto recs = collectTrace(prog, 2);
    ASSERT_EQ(recs.size(), 2u);
    EXPECT_EQ(recs[0].numMemOps, 1u);
    EXPECT_TRUE(recs[0].memOps[0].isStore);
    EXPECT_EQ(recs[0].memOps[0].data, 0x99u);
    EXPECT_EQ(recs[0].numRegWrites, 1u);
    EXPECT_TRUE(recs[1].isControl());
    EXPECT_TRUE(recs[1].taken);
}

TEST(ExecutorTraceSource, MatchesCollectedTrace)
{
    const Workload &w = findWorkload("crafty");
    const x86::Program prog = w.buildProgram(0);
    const auto collected = collectTrace(prog, 2000);

    ExecutorTraceSource src(prog, 2000);
    for (size_t i = 0; i < collected.size(); ++i) {
        const TraceRecord *rec = src.peek();
        ASSERT_NE(rec, nullptr);
        EXPECT_EQ(rec->pc, collected[i].pc);
        EXPECT_EQ(rec->nextPc, collected[i].nextPc);
        src.advance();
    }
    EXPECT_TRUE(src.done());
    EXPECT_EQ(src.consumed(), 2000u);
}

namespace {

/** Every field of two records, unused side-effect entries included. */
void
expectSameRecord(const TraceRecord &a, const TraceRecord &b, size_t i)
{
    EXPECT_EQ(a.pc, b.pc) << i;
    EXPECT_EQ(a.nextPc, b.nextPc) << i;
    EXPECT_TRUE(a.inst == b.inst) << i;
    EXPECT_EQ(a.length, b.length) << i;
    EXPECT_EQ(a.taken, b.taken) << i;
    EXPECT_EQ(a.wroteFlags, b.wroteFlags) << i;
    EXPECT_EQ(a.flagsAfter, b.flagsAfter) << i;
    EXPECT_EQ(a.numRegWrites, b.numRegWrites) << i;
    EXPECT_EQ(a.numMemOps, b.numMemOps) << i;
    EXPECT_EQ(a.numFregWrites, b.numFregWrites) << i;
    for (unsigned k = 0; k < TraceRecord::MAX_REG_WRITES; ++k) {
        EXPECT_EQ(a.regWrites[k].reg, b.regWrites[k].reg) << i;
        EXPECT_EQ(a.regWrites[k].value, b.regWrites[k].value) << i;
    }
    for (unsigned k = 0; k < TraceRecord::MAX_MEM_OPS; ++k) {
        EXPECT_EQ(a.memOps[k].isStore, b.memOps[k].isStore) << i;
        EXPECT_EQ(a.memOps[k].addr, b.memOps[k].addr) << i;
        EXPECT_EQ(a.memOps[k].size, b.memOps[k].size) << i;
        EXPECT_EQ(a.memOps[k].data, b.memOps[k].data) << i;
    }
    EXPECT_EQ(a.fregWrite.reg, b.fregWrite.reg) << i;
    EXPECT_EQ(a.fregWrite.value, b.fregWrite.value) << i;
}

} // namespace

TEST(ExecutorTraceSource, OwningSourceRewritesRingSlotsLikeFreshRecords)
{
    // openTrace owns its program; records are written in place into
    // reused ring slots and must equal freshly built ones field for
    // field, across many ring wraps and at every peek depth used.
    const Workload &w = findWorkload("dream");
    const auto fresh = collectTrace(w.buildProgram(0), 6000);
    auto src = w.openTrace(0, 6000);
    for (size_t i = 0; i < fresh.size(); ++i) {
        const unsigned ahead = unsigned(i * 37 % TraceSource::LOOKAHEAD);
        if (i + ahead < fresh.size()) {
            const TraceRecord *deep = src->peek(ahead);
            ASSERT_NE(deep, nullptr);
            expectSameRecord(*deep, fresh[i + ahead], i + ahead);
        }
        expectSameRecord(*src->peek(), fresh[i], i);
        src->advance();
    }
    EXPECT_TRUE(src->done());
    EXPECT_EQ(src->peek(), nullptr);
}

TEST(ExecutorTraceSource, DeepLookahead)
{
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    ExecutorTraceSource src(prog, 1000);

    // Peek far ahead, then verify the records arrive unchanged.
    std::vector<uint32_t> ahead_pcs;
    for (unsigned k = 0; k < 400; ++k)
        ahead_pcs.push_back(src.peek(k)->pc);
    for (unsigned k = 0; k < 400; ++k) {
        EXPECT_EQ(src.peek()->pc, ahead_pcs[k]);
        src.advance();
    }
}

TEST(ExecutorTraceSource, EndsAtBudget)
{
    const Workload &w = findWorkload("bzip2");
    const x86::Program prog = w.buildProgram(0);
    ExecutorTraceSource src(prog, 50);
    unsigned n = 0;
    while (!src.done()) {
        src.advance();
        ++n;
    }
    EXPECT_EQ(n, 50u);
    EXPECT_EQ(src.peek(), nullptr);
}

TEST(Workloads, FourteenStandardApps)
{
    const auto &all = standardWorkloads();
    ASSERT_EQ(all.size(), 14u);
    unsigned spec = 0, desktop = 0;
    for (const auto &w : all) {
        if (w.type == AppType::SPECint)
            ++spec;
        else
            ++desktop;
    }
    EXPECT_EQ(spec, 7u);
    EXPECT_EQ(desktop, 7u);
    // Table 1 totals.
    EXPECT_EQ(findWorkload("excel").numTraces, 3u);
    EXPECT_EQ(findWorkload("bzip2").paperInsts, 50000000u);
}

TEST(Workloads, DeterministicSynthesis)
{
    const Workload &w = findWorkload("vortex");
    const auto a = collectTrace(w.buildProgram(0), 500);
    const auto b2 = collectTrace(w.buildProgram(0), 500);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b2[i].pc);
        EXPECT_EQ(a[i].nextPc, b2[i].nextPc);
    }
}

TEST(Workloads, TracesOfOneAppDiffer)
{
    const Workload &w = findWorkload("excel");
    const auto a = collectTrace(w.buildProgram(0), 200);
    const auto b2 = collectTrace(w.buildProgram(1), 200);
    bool differs = false;
    for (size_t i = 0; i < a.size() && !differs; ++i)
        differs = a[i].pc != b2[i].pc;
    EXPECT_TRUE(differs);
}

namespace {

/** Per-branch-site taken statistics over a trace prefix. */
std::map<uint32_t, std::pair<uint64_t, uint64_t>>
branchStats(const Workload &w, uint64_t insts)
{
    std::map<uint32_t, std::pair<uint64_t, uint64_t>> stats;
    const x86::Program prog = w.buildProgram(0);
    x86::Executor exec(prog);
    for (uint64_t i = 0; i < insts; ++i) {
        const auto info = exec.step();
        if (info.placed->inst.isCondBranch()) {
            auto &[taken, total] = stats[info.pc];
            total += 1;
            taken += info.branchTaken ? 1 : 0;
        }
    }
    return stats;
}

} // namespace

TEST(Workloads, BranchBiasMatchesPersonality)
{
    // crafty uses biasBits = 5 => biased branches taken ~ 31/32.
    const auto stats = branchStats(findWorkload("crafty"), 400000);
    ASSERT_FALSE(stats.empty());
    unsigned biased_sites = 0, unbiased_sites = 0;
    for (const auto &[pc, tt] : stats) {
        const auto &[taken, total] = tt;
        if (total < 64)
            continue;
        const double ratio = double(taken) / double(total);
        if (ratio > 0.9 || ratio < 0.1)
            ++biased_sites;
        else if (ratio > 0.3 && ratio < 0.8)
            ++unbiased_sites;
    }
    // The personality mixes biased branch segments with loop branches
    // (biased) and occasional unbiased diamonds.
    EXPECT_GT(biased_sites, 5u);
    EXPECT_GT(unbiased_sites, 0u);
}

TEST(Workloads, UopToX86RatioNearPaper)
{
    // §5.1.1: "we attain an average micro-operation-to-x86 instruction
    // ratio of 1.4".  Check the whole workload set stays close.
    uop::Translator trans;
    double total_ratio = 0;
    for (const auto &w : standardWorkloads()) {
        const x86::Program prog = w.buildProgram(0);
        x86::Executor exec(prog);
        uint64_t x86n = 0, uopn = 0;
        std::vector<uop::Uop> flow;
        for (unsigned i = 0; i < 20000; ++i) {
            const auto info = exec.step();
            flow.clear();
            trans.translate(info.placed->inst, info.pc,
                            info.pc + info.placed->length, flow);
            ++x86n;
            uopn += flow.size();
        }
        const double ratio = double(uopn) / double(x86n);
        EXPECT_GT(ratio, 1.05) << w.name;
        EXPECT_LT(ratio, 1.75) << w.name;
        total_ratio += ratio;
    }
    // Our subset omits the microcoded string/BCD flows that pull real
    // x86 up to the paper's 1.4; see DESIGN.md.
    const double avg = total_ratio / 14.0;
    EXPECT_GT(avg, 1.10);
    EXPECT_LT(avg, 1.55);
}

TEST(Workloads, DesktopCodeFootprintExceedsSpec)
{
    // Desktop applications should pressure the 8kB ICache more than
    // SPEC (drives the coverage difference in §6.1).
    uint64_t spec_bytes = 0, desk_bytes = 0;
    unsigned spec_n = 0, desk_n = 0;
    for (const auto &w : standardWorkloads()) {
        const auto prog = w.buildProgram(0);
        if (w.type == AppType::SPECint) {
            spec_bytes += prog.codeBytes();
            ++spec_n;
        } else {
            desk_bytes += prog.codeBytes();
            ++desk_n;
        }
    }
    EXPECT_GT(desk_bytes / desk_n, spec_bytes / spec_n);
}

// ---------------------------------------------------------------------
// Program's dense address index
// ---------------------------------------------------------------------

namespace {

/**
 * at()/contains() agree with a brute-force scan of code() at every
 * address from 16 bytes below the code span to 16 bytes above it.
 */
void
expectIndexMatchesScan(const x86::Program &prog)
{
    const auto &code = prog.code();
    ASSERT_FALSE(code.empty());
    uint32_t lo = ~0u, hi = 0;
    for (const auto &p : code) {
        lo = std::min(lo, p.addr);
        hi = std::max(hi, p.addr + p.length);
    }
    unsigned starts = 0;
    for (uint32_t addr = lo - 16; addr != hi + 17; ++addr) {
        const x86::Program::Placed *want = nullptr;
        for (const auto &p : code) {
            if (p.addr == addr)
                want = &p;
        }
        ASSERT_EQ(prog.contains(addr), want != nullptr) << addr;
        if (want) {
            EXPECT_EQ(&prog.at(addr), want) << addr;
            ++starts;
        }
    }
    EXPECT_EQ(starts, code.size());
}

} // namespace

TEST(ProgramIndex, AgreesWithScanOnSynthesizedProgram)
{
    // lotus hot spot 1 has the widest code span (11.5 KB).
    expectIndexMatchesScan(findWorkload("lotus").buildProgram(1));
}

TEST(ProgramIndex, AgreesWithScanOnAsmBuilderProgram)
{
    // Based 8 bytes above zero, so the scan's low end wraps below 0.
    AsmBuilder b(8);
    b.label("top");
    b.movRI(Reg::EAX, 7);
    b.addRR(Reg::EAX, Reg::EBX);
    b.movRM(Reg::ECX, memAt(Reg::ESI, 4));
    b.nop();
    b.jcc(Cond::NE, "top");
    b.ret();
    expectIndexMatchesScan(b.build());
}

TEST(ProgramIndexDeathTest, UnplacedAddressKeepsItsFatalMessage)
{
    AsmBuilder b;
    b.movRI(Reg::EAX, 1);
    b.ret();
    const x86::Program prog = b.build();
    // Inside the span but not an instruction start, and past its end.
    EXPECT_DEATH(prog.at(prog.entry() + 1),
                 "fatal: .*execution reached 0x00401001 where no "
                 "instruction is placed");
    EXPECT_DEATH(prog.at(0x7fff0000),
                 "execution reached 0x7fff0000 where no instruction is "
                 "placed");
}

TEST(ProgramIndexDeathTest, CodeSpanOverTheCapPanics)
{
    x86::Program::Placed first, last;
    first.addr = 0x1000;
    first.length = 1;
    last = first;
    last.addr = first.addr + x86::Program::MAX_CODE_SPAN;
    EXPECT_DEATH(x86::Program({first, last}, {}, first.addr, 0x7ffff000),
                 "panic: .*code span 0x00001000\\.\\.0x01001000 exceeds "
                 "the 16777216-byte cap");
}

// ---------------------------------------------------------------------
// Trace-file serialization
// ---------------------------------------------------------------------

#include "trace/tracev3.hh"

namespace {

/** Record @p insts of @p prog to a v4 file of @p chunk-record chunks. */
std::string
dumpV4(const x86::Program &prog, uint64_t insts, const std::string &name,
       uint32_t chunk = V3Options{}.chunkRecords)
{
    const std::string path = ::testing::TempDir() + name;
    V3Options opts;
    opts.chunkRecords = chunk;
    TraceV3Writer::dumpProgram(prog, insts, path, opts);
    return path;
}

} // namespace

TEST(TraceFile, RoundTripPreservesEveryField)
{
    const Workload &w = findWorkload("eon");   // exercises FP records
    const x86::Program prog = w.buildProgram(0);
    const auto reference = collectTrace(prog, 3000);

    TraceV3Source src(dumpV4(prog, 3000, "eon.rpl3"));
    EXPECT_EQ(src.totalRecords(), 3000u);
    for (const auto &want : reference) {
        const TraceRecord *got = src.peek();
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->pc, want.pc);
        EXPECT_EQ(got->nextPc, want.nextPc);
        EXPECT_EQ(got->length, want.length);
        EXPECT_EQ(got->taken, want.taken);
        EXPECT_EQ(got->flagsAfter, want.flagsAfter);
        EXPECT_TRUE(got->inst == want.inst);
        ASSERT_EQ(got->numRegWrites, want.numRegWrites);
        for (unsigned i = 0; i < want.numRegWrites; ++i) {
            EXPECT_EQ(got->regWrites[i].reg, want.regWrites[i].reg);
            EXPECT_EQ(got->regWrites[i].value, want.regWrites[i].value);
        }
        ASSERT_EQ(got->numMemOps, want.numMemOps);
        for (unsigned i = 0; i < want.numMemOps; ++i) {
            EXPECT_EQ(got->memOps[i].isStore, want.memOps[i].isStore);
            EXPECT_EQ(got->memOps[i].addr, want.memOps[i].addr);
            EXPECT_EQ(got->memOps[i].size, want.memOps[i].size);
            EXPECT_EQ(got->memOps[i].data, want.memOps[i].data);
        }
        src.advance();
    }
    EXPECT_TRUE(src.done());
}

TEST(TraceFile, LookaheadAcrossFileBuffer)
{
    // 64-record chunks: a 400-deep peek window spans seven chunks, all
    // decoded ahead of the read cursor.
    const Workload &w = findWorkload("gzip");
    const x86::Program prog = w.buildProgram(0);
    TraceV3Source src(dumpV4(prog, 2000, "gzip.rpl3", 64));
    std::vector<uint32_t> ahead;
    for (unsigned k = 0; k < 400; ++k)
        ahead.push_back(src.peek(k)->pc);
    for (unsigned k = 0; k < 400; ++k) {
        EXPECT_EQ(src.peek()->pc, ahead[k]);
        src.advance();
    }
}

TEST(TraceFile, RingWraparoundDeliversIdenticalStream)
{
    // Stream several lookahead windows' worth of records through chunk
    // sizes below and above TraceSource::LOOKAHEAD, peeking at a
    // different depth at every record (up to LOOKAHEAD - 1, across
    // several chunk boundaries) while the read cursor walks each
    // chunk.  Every peek must agree with what a fresh executor
    // delivers at the same depth.
    const Workload &w = findWorkload("crafty");
    const x86::Program prog = w.buildProgram(0);
    const uint64_t total = uint64_t(TraceSource::LOOKAHEAD) * 7 + 123;
    for (const uint32_t chunk : {64u, 100u, 1000u}) {
        SCOPED_TRACE("chunk " + std::to_string(chunk));
        ExecutorTraceSource ref(prog, total);
        TraceV3Source src(dumpV4(prog, total, "crafty_wrap.rpl3", chunk));
        uint64_t n = 0;
        while (!ref.done()) {
            ASSERT_FALSE(src.done()) << "file stream ended early at " << n;
            const TraceRecord *got = src.peek();
            const TraceRecord *want = ref.peek();
            ASSERT_NE(got, nullptr);
            EXPECT_EQ(got->pc, want->pc) << "record " << n;
            EXPECT_EQ(got->nextPc, want->nextPc) << "record " << n;
            EXPECT_EQ(got->numMemOps, want->numMemOps) << "record " << n;
            const unsigned depth =
                unsigned((n * 37) % TraceSource::LOOKAHEAD);
            const TraceRecord *far = src.peek(depth);
            const TraceRecord *far_ref = ref.peek(depth);
            ASSERT_EQ(far == nullptr, far_ref == nullptr) << "record " << n;
            if (far) {
                EXPECT_EQ(far->pc, far_ref->pc)
                    << "peek(" << depth << ") at " << n;
            }
            src.advance();
            ref.advance();
            ++n;
        }
        EXPECT_TRUE(src.done());
        EXPECT_EQ(n, total);
        EXPECT_TRUE(src.ok());
    }
}
