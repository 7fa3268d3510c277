/**
 * @file
 * Optimizer tests: the Figure 2 crafty fragment end-to-end (frame scope
 * and block scope), per-pass behaviour, speculative memory optimization
 * with unsafe stores, and functional equivalence of optimized frames.
 */

#include <gtest/gtest.h>

#include <limits>

#include "core/constructor.hh"
#include "opt/datapath.hh"
#include "opt/frameexec.hh"
#include "opt/optimizer.hh"
#include "uop/evaluator.hh"
#include "util/rng.hh"

using namespace replay;
using namespace replay::opt;
using namespace replay::uop;
using x86::Cond;

namespace {

/** Terse micro-op builders for hand-written frames. */
Uop
mkAlu(Op op, UReg dst, UReg a, UReg b, bool flags = true)
{
    Uop u;
    u.op = op;
    u.dst = dst;
    u.srcA = a;
    u.srcB = b;
    u.writesFlags = flags;
    return u;
}

Uop
mkAluI(Op op, UReg dst, UReg a, int32_t imm, bool flags = true)
{
    Uop u;
    u.op = op;
    u.dst = dst;
    u.srcA = a;
    u.imm = imm;
    u.writesFlags = flags;
    return u;
}

Uop
mkLimm(UReg dst, int32_t imm)
{
    Uop u;
    u.op = Op::LIMM;
    u.dst = dst;
    u.imm = imm;
    return u;
}

Uop
mkMov(UReg dst, UReg src)
{
    Uop u;
    u.op = Op::MOV;
    u.dst = dst;
    u.srcA = src;
    return u;
}

Uop
mkLoad(UReg dst, UReg base, int32_t disp)
{
    Uop u;
    u.op = Op::LOAD;
    u.dst = dst;
    u.srcA = base;
    u.imm = disp;
    return u;
}

Uop
mkStore(UReg base, int32_t disp, UReg value)
{
    Uop u;
    u.op = Op::STORE;
    u.srcA = base;
    u.imm = disp;
    u.srcB = value;
    return u;
}

Uop
mkAssert(Cond cc)
{
    Uop u;
    u.op = Op::ASSERT;
    u.cc = cc;
    u.readsFlags = true;
    return u;
}

Uop
mkJmpi(UReg target)
{
    Uop u;
    u.op = Op::JMPI;
    u.srcA = target;
    return u;
}

/** The seventeen micro-ops of Figure 2, as a frame. */
std::pair<std::vector<Uop>, std::vector<uint16_t>>
figure2Frame()
{
    std::vector<Uop> u;
    // Block 1: PUSH EBP; PUSH EBX; MOV ECX,[ESP+0C]; MOV EBX,[ESP+10];
    //          XOR EAX,EAX; MOV EDX,ECX; OR EDX,EBX; JZ (biased taken)
    u.push_back(mkStore(UReg::ESP, -4, UReg::EBP));             // 01
    u.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP, 4, false)); // 02
    u.push_back(mkStore(UReg::ESP, -4, UReg::EBX));             // 03
    u.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP, 4, false)); // 04
    u.push_back(mkLoad(UReg::ECX, UReg::ESP, 0x0c));            // 05
    u.push_back(mkLoad(UReg::EBX, UReg::ESP, 0x10));            // 06
    u.push_back(mkAlu(Op::XOR, UReg::EAX, UReg::EAX, UReg::EAX)); // 07
    u.push_back(mkMov(UReg::EDX, UReg::ECX));                   // 08
    u.push_back(mkAlu(Op::OR, UReg::EDX, UReg::EDX, UReg::EBX)); // 09
    u.push_back(mkAssert(Cond::E));                             // 10
    // Block 2: POP EBX; POP EBP; RET
    u.push_back(mkAluI(Op::ADD, UReg::ESP, UReg::ESP, 4, false)); // 11
    u.push_back(mkLoad(UReg::EBX, UReg::ESP, -4));              // 12
    u.push_back(mkAluI(Op::ADD, UReg::ESP, UReg::ESP, 4, false)); // 13
    u.push_back(mkLoad(UReg::EBP, UReg::ESP, -4));              // 14
    u.push_back(mkLoad(UReg::ET2, UReg::ESP, 0));               // 15
    u.push_back(mkAluI(Op::ADD, UReg::ESP, UReg::ESP, 4, false)); // 16
    u.push_back(mkJmpi(UReg::ET2));                             // 17

    std::vector<uint16_t> blocks(17, 0);
    for (size_t i = 10; i < 17; ++i)
        blocks[i] = 1;
    return {u, blocks};
}

/** Execute an architectural micro-op sequence (the reference). */
ArchState
runReference(const std::vector<Uop> &uops, const ArchState &in,
             x86::SparseMemory &mem)
{
    Evaluator eval(mem);
    for (unsigned r = 0; r < NUM_UREGS; ++r)
        eval.setReg(static_cast<UReg>(r), in.regs[r]);
    eval.setFlags(in.flags);
    for (const auto &u : uops) {
        const auto res = eval.exec(u);
        EXPECT_FALSE(res.asserted);
    }
    ArchState out;
    for (unsigned r = 0; r < NUM_UREGS; ++r)
        out.regs[r] = eval.reg(static_cast<UReg>(r));
    out.flags = eval.flags();
    return out;
}

/** Compare non-temporary architectural state. */
void
expectArchEqual(const ArchState &a, const ArchState &b)
{
    for (unsigned r = 0; r < NUM_UREGS; ++r) {
        const auto reg = static_cast<UReg>(r);
        if (!OptBuffer::archLiveOut(reg))
            continue;
        EXPECT_EQ(a.regs[r], b.regs[r]) << "reg " << uregName(reg);
    }
    EXPECT_EQ(a.flags.pack(), b.flags.pack()) << "flags";
}

class AllowAllHints : public AliasHints
{
  public:
    bool
    cleanForSpeculation(uint32_t, uint8_t) const override
    {
        return true;
    }
};

class DenyAllHints : public AliasHints
{
  public:
    bool
    cleanForSpeculation(uint32_t, uint8_t) const override
    {
        return false;
    }
};

} // namespace

// ---------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------

TEST(Figure2, FrameScopeRemovesSevenOfSeventeen)
{
    const auto [uops, blocks] = figure2Frame();
    Optimizer optimizer;                    // all optimizations on
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    // "Overall, seven of the seventeen micro-operations are removed,
    //  including two of the five loads."
    EXPECT_EQ(frame.inputUops, 17u);
    EXPECT_EQ(frame.numUops(), 10u);
    EXPECT_EQ(frame.inputLoads, 5u);
    EXPECT_EQ(frame.outputLoads, 3u);
}

TEST(Figure2, FrameScopeProducesThePaperBody)
{
    const auto [uops, blocks] = figure2Frame();
    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    // Two stores survive at [live-in ESP - 4] and [ESP - 8].
    std::vector<int32_t> store_disps;
    std::vector<int32_t> load_disps;
    for (const FrameUop fu : frame) {
        if (fu.uop.isStore()) {
            EXPECT_EQ(fu.srcA, Operand::liveIn(UReg::ESP));
            store_disps.push_back(fu.uop.imm);
        }
        if (fu.uop.isLoad()) {
            EXPECT_EQ(fu.srcA, Operand::liveIn(UReg::ESP));
            load_disps.push_back(fu.uop.imm);
        }
    }
    EXPECT_EQ(store_disps, (std::vector<int32_t>{-4, -8}));
    // 05' [ESP+4], 06' [ESP+8], 15' [ESP].
    EXPECT_EQ(load_disps, (std::vector<int32_t>{4, 8, 0}));

    // The restored callee-save registers come straight from live-ins
    // (store forwarding), and ESP is a single +4 update.
    EXPECT_EQ(frame.exit.regs[unsigned(UReg::EBX)],
              Operand::liveIn(UReg::EBX));
    EXPECT_EQ(frame.exit.regs[unsigned(UReg::EBP)],
              Operand::liveIn(UReg::EBP));
    const Operand esp = frame.exit.regs[unsigned(UReg::ESP)];
    ASSERT_TRUE(esp.isProd());
    const FrameUop esp_uop = frame.at(esp.idx);
    EXPECT_EQ(esp_uop.uop.op, Op::ADD);
    EXPECT_EQ(esp_uop.srcA, Operand::liveIn(UReg::ESP));
    EXPECT_EQ(esp_uop.uop.imm, 4);

    // The OR survives as the assertion's producer, now reading the
    // parameter loads directly (copy propagation removed the MOV).
    bool found_or = false;
    for (const FrameUop fu : frame) {
        if (fu.uop.op == Op::OR) {
            found_or = true;
            EXPECT_TRUE(fu.srcA.isProd());
            EXPECT_TRUE(fu.srcB.isProd());
        }
    }
    EXPECT_TRUE(found_or);
}

TEST(Figure2, BlockScopeMatchesIntraBlockColumn)
{
    const auto [uops, blocks] = figure2Frame();
    OptConfig cfg;
    cfg.scope = Scope::BLOCK;
    Optimizer optimizer(cfg);
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    // Intra-block column keeps 13 micro-ops: the stack updates merge
    // within each block (02, 11, 13 die) and the MOV dies (08), but no
    // load can be removed without crossing a block.
    EXPECT_EQ(frame.numUops(), 13u);
    EXPECT_EQ(frame.outputLoads, 5u);
}

TEST(Figure2, OptimizedFrameIsFunctionallyEquivalent)
{
    const auto [uops, blocks] = figure2Frame();
    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    ArchState in;
    in.regs[unsigned(UReg::ESP)] = 0x1000;
    in.regs[unsigned(UReg::EBP)] = 0xbbbb;
    in.regs[unsigned(UReg::EBX)] = 0xcccc;
    in.regs[unsigned(UReg::EAX)] = 0x1234;

    // Memory: parameters at [ESP+4]/[ESP+8], return address at [ESP],
    // chosen so EDX = p1|p2 == 0 and the assertion holds.
    x86::SparseMemory ref_mem;
    ref_mem.write(0x1000, 4, 0x4444);       // return address
    ref_mem.write(0x1004, 4, 0);            // param 1
    ref_mem.write(0x1008, 4, 0);            // param 2

    x86::SparseMemory opt_mem;
    opt_mem.write(0x1000, 4, 0x4444);
    opt_mem.write(0x1004, 4, 0);
    opt_mem.write(0x1008, 4, 0);

    const ArchState ref_out = runReference(uops, in, ref_mem);

    ArchState opt_state = in;
    const auto res = executeFrame(frame, opt_state, opt_mem);
    ASSERT_TRUE(res.committed());
    EXPECT_EQ(res.indirectTarget, 0x4444u);

    expectArchEqual(opt_state, ref_out);
    // Stores landed identically.
    EXPECT_EQ(opt_mem.read(0xffc, 4), ref_mem.read(0xffc, 4));
    EXPECT_EQ(opt_mem.read(0xff8, 4), ref_mem.read(0xff8, 4));
}

TEST(Figure2, AssertionFiresOnBiasViolation)
{
    const auto [uops, blocks] = figure2Frame();
    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    ArchState in;
    in.regs[unsigned(UReg::ESP)] = 0x1000;
    x86::SparseMemory mem;
    mem.write(0x1004, 4, 7);    // nonzero parameter: OR != 0, JZ not
                                // taken, assertion must fire
    ArchState state = in;
    const auto res = executeFrame(frame, state, mem);
    EXPECT_EQ(res.status, FrameExecResult::Status::ASSERTED);
    // Rollback: nothing committed.
    EXPECT_EQ(mem.read(0xffc, 4), 0u);
    expectArchEqual(state, in);
}

// ---------------------------------------------------------------------
// Individual passes
// ---------------------------------------------------------------------

namespace {

OptimizedFrame
optimizeSimple(const std::vector<Uop> &uops, OptConfig cfg = {},
               const AliasHints *hints = nullptr)
{
    Optimizer optimizer(cfg);
    OptStats stats;
    return optimizer.optimize(uops, {}, hints, stats);
}

} // namespace

TEST(PassNop, RemovesNopsAndInternalJumps)
{
    std::vector<Uop> uops;
    Uop nop;
    nop.op = Op::NOP;
    uops.push_back(nop);
    Uop jmp;
    jmp.op = Op::JMP;
    jmp.target = 0x4000;
    uops.push_back(jmp);
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    EXPECT_EQ(frame.numUops(), 1u);
    EXPECT_TRUE(frame.at(0).uop.isStore());
}

TEST(PassNop, DisabledKeepsThem)
{
    std::vector<Uop> uops;
    Uop jmp;
    jmp.op = Op::JMP;
    uops.push_back(jmp);
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));
    const auto frame = optimizeSimple(uops, OptConfig::without("NOP"));
    EXPECT_EQ(frame.numUops(), 2u);
}

TEST(PassAssert, CombinesCmpWithAssert)
{
    std::vector<Uop> uops;
    Uop cmp = mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 7);
    uops.push_back(cmp);
    uops.push_back(mkAssert(Cond::E));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));
    // Terminate flags liveness so the combined-away CMP can die (a
    // frame's final flag writer is conservatively live-out).
    uops.push_back(mkAlu(Op::XOR, UReg::EAX, UReg::EAX, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    ASSERT_EQ(frame.numUops(), 3u);     // CMP died into the assert
    const FrameUop a = frame.at(0);
    EXPECT_EQ(a.uop.op, Op::ASSERT);
    EXPECT_TRUE(a.uop.valueAssert);
    EXPECT_EQ(a.uop.assertOp, Op::CMP);
    EXPECT_EQ(a.srcA, Operand::liveIn(UReg::EAX));
    EXPECT_EQ(a.uop.imm, 7);
}

TEST(PassAssert, KeepsCmpWithOtherFlagConsumers)
{
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 7));
    uops.push_back(mkAssert(Cond::E));
    Uop setcc;
    setcc.op = Op::SETCC;
    setcc.cc = Cond::NE;
    setcc.dst = UReg::EBX;
    setcc.srcA = UReg::EBX;
    setcc.readsFlags = true;
    uops.push_back(setcc);
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EBX));

    const auto frame = optimizeSimple(uops);
    // CMP survives for the SETCC; assert is still combined.
    unsigned cmps = 0;
    for (const FrameUop fu : frame)
        cmps += fu.uop.op == Op::CMP;
    EXPECT_EQ(cmps, 1u);
}

TEST(PassConstProp, FoldsConstantChains)
{
    std::vector<Uop> uops;
    // Temporaries, so only the folded result and the store survive.
    uops.push_back(mkLimm(UReg::ET0, 5));
    uops.push_back(mkAluI(Op::ADD, UReg::ET1, UReg::ET0, 3, false));
    uops.push_back(mkAluI(Op::SHL, UReg::ET1, UReg::ET1, 2, false));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::ET1));

    const auto frame = optimizeSimple(uops);
    // Everything folds into a single LIMM 32 feeding the store.
    ASSERT_EQ(frame.numUops(), 2u);
    EXPECT_EQ(frame.at(0).uop.op, Op::LIMM);
    EXPECT_EQ(frame.at(0).uop.imm, 32);
}

TEST(PassConstProp, RegisterOperandBecomesImmediate)
{
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::ET3, 100));
    uops.push_back(mkAlu(Op::ADD, UReg::ET4, UReg::EAX, UReg::ET3,
                         false));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::ET4));

    const auto frame = optimizeSimple(uops);
    ASSERT_EQ(frame.numUops(), 2u);
    const FrameUop add = frame.at(0);
    EXPECT_EQ(add.uop.op, Op::ADD);
    EXPECT_TRUE(add.srcB.isNone());
    EXPECT_EQ(add.uop.imm, 100);
    EXPECT_EQ(add.srcA, Operand::liveIn(UReg::EAX));
}

TEST(PassConstProp, RemovesProvenValueAssert)
{
    // The §3.3 pattern: a constant return address flows into an
    // indirect-jump assertion, which is then proven and removed.
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::ET7, 0x5000));
    Uop va;
    va.op = Op::ASSERT;
    va.cc = Cond::E;
    va.valueAssert = true;
    va.srcA = UReg::ET7;
    va.imm = 0x5000;
    uops.push_back(va);
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    EXPECT_EQ(frame.numUops(), 1u);
    EXPECT_TRUE(frame.at(0).uop.isStore());
}

TEST(PassReassoc, CollapsesStackPointerChains)
{
    // Three decrements then a store: the store's base flattens to the
    // live-in ESP and the dead decrements disappear.
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP, 4, false));
    uops.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP, 4, false));
    uops.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP, 4, false));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    ASSERT_EQ(frame.numUops(), 2u);
    FrameUop store, esp;
    bool found_store = false, found_esp = false;
    for (const FrameUop fu : frame) {
        if (fu.uop.isStore()) {
            store = fu;
            found_store = true;
        } else {
            esp = fu;
            found_esp = true;
        }
    }
    ASSERT_TRUE(found_store);
    ASSERT_TRUE(found_esp);
    EXPECT_EQ(store.srcA, Operand::liveIn(UReg::ESP));
    EXPECT_EQ(store.uop.imm, -12);
    // ESP live-out is a single -12 update.
    EXPECT_EQ(esp.uop.op, Op::ADD);
    EXPECT_EQ(esp.uop.imm, -12);
}

TEST(PassReassoc, RespectsObservableFlags)
{
    // The second SUB's flags feed an assert; it must not be rewritten
    // into a combined ADD.
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::SUB, UReg::EAX, UReg::EAX, 4, true));
    uops.push_back(mkAluI(Op::SUB, UReg::EAX, UReg::EAX, 4, true));
    uops.push_back(mkAssert(Cond::NE));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    // The second SUB's flags feed the assertion, so it must keep its
    // original immediate (no chain combining into -8).  The first
    // SUB's flags are shadowed and it may legally normalize to an ADD
    // of -4, but the chain must not collapse through the flag-live op.
    unsigned flagged_subs = 0;
    for (const FrameUop fu : frame) {
        if (fu.uop.op == Op::SUB && fu.uop.writesFlags) {
            EXPECT_EQ(fu.uop.imm, 4);
            EXPECT_TRUE(fu.srcA.isProd());  // still reads the first op
            ++flagged_subs;
        }
    }
    EXPECT_EQ(flagged_subs, 1u);
}

TEST(PassCse, RemovesRedundantAlu)
{
    std::vector<Uop> uops;
    uops.push_back(mkAlu(Op::ADD, UReg::EAX, UReg::ECX, UReg::EDX,
                         false));
    uops.push_back(mkAlu(Op::ADD, UReg::EBX, UReg::ECX, UReg::EDX,
                         false));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));
    uops.push_back(mkStore(UReg::ESP, 4, UReg::EBX));

    const auto frame = optimizeSimple(uops);
    unsigned adds = 0;
    for (const FrameUop fu : frame)
        adds += fu.uop.op == Op::ADD;
    EXPECT_EQ(adds, 1u);
    // Both stores read the same producer.
    EXPECT_EQ(frame.at(1).srcB, frame.at(2).srcB);
}

TEST(PassCse, RedirectsFlagConsumers)
{
    // Duplicate CMPs: the second one's assert reads the first's flags.
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 9));
    uops.push_back(mkAssert(Cond::NE));
    uops.push_back(mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 9));
    uops.push_back(mkAssert(Cond::NE));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    OptConfig cfg;
    cfg.assertCombine = false;      // keep CMPs visible to CSE
    const auto frame = optimizeSimple(uops, cfg);
    unsigned cmps = 0;
    for (const FrameUop fu : frame)
        cmps += fu.uop.op == Op::CMP;
    EXPECT_EQ(cmps, 1u);
}

TEST(PassCse, RemovesRedundantLoadAcrossDisjointStore)
{
    std::vector<Uop> uops;
    uops.push_back(mkLoad(UReg::EAX, UReg::ESI, 0));
    uops.push_back(mkStore(UReg::ESI, 8, UReg::EAX));   // disjoint
    uops.push_back(mkLoad(UReg::EBX, UReg::ESI, 0));    // redundant
    uops.push_back(mkStore(UReg::ESI, 4, UReg::EBX));

    const auto frame = optimizeSimple(uops);
    EXPECT_EQ(frame.outputLoads, 1u);
}

TEST(PassCse, BlockedBySameAddressStore)
{
    std::vector<Uop> uops;
    uops.push_back(mkLoad(UReg::EAX, UReg::ESI, 0));
    uops.push_back(mkStore(UReg::ESI, 0, UReg::EDI));   // same address
    uops.push_back(mkLoad(UReg::EBX, UReg::ESI, 0));    // NOT redundant
    uops.push_back(mkStore(UReg::ESI, 4, UReg::EBX));
    uops.push_back(mkStore(UReg::ESI, 8, UReg::EAX));

    OptConfig cfg;
    cfg.storeForward = false;   // isolate CSE
    const auto frame = optimizeSimple(uops, cfg);
    EXPECT_EQ(frame.outputLoads, 2u);
}

TEST(PassStoreForward, ForwardsThroughSameAddress)
{
    std::vector<Uop> uops;
    uops.push_back(mkStore(UReg::ESP, -4, UReg::EBP));
    uops.push_back(mkLoad(UReg::EAX, UReg::ESP, -4));
    uops.push_back(mkStore(UReg::ESI, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops);
    EXPECT_EQ(frame.outputLoads, 0u);
    // The consumer store now reads the live-in EBP directly.
    for (const FrameUop fu : frame) {
        if (fu.uop.isStore() && fu.srcA == Operand::liveIn(UReg::ESI)) {
            EXPECT_EQ(fu.srcB, Operand::liveIn(UReg::EBP));
        }
    }
}

TEST(PassStoreForward, SpeculatesAcrossMayAliasStore)
{
    std::vector<Uop> uops;
    uops.push_back(mkStore(UReg::ESI, 0, UReg::EBP));   // store A
    uops.push_back(mkStore(UReg::ECX, 0, UReg::EDI));   // store B: alias?
    uops.push_back(mkLoad(UReg::EAX, UReg::ESI, 0));
    uops.push_back(mkStore(UReg::ESI, 16, UReg::EAX));

    // Without alias hints: no speculation, load survives.
    const auto plain = optimizeSimple(uops);
    EXPECT_EQ(plain.outputLoads, 1u);

    // With a clean profile: forwarded, store B marked unsafe.
    AllowAllHints allow;
    const auto spec = optimizeSimple(uops, {}, &allow);
    EXPECT_EQ(spec.outputLoads, 0u);
    unsigned unsafe = 0;
    for (const FrameUop fu : spec)
        unsafe += fu.unsafe;
    EXPECT_EQ(unsafe, 1u);

    // With a dirty profile: refused.
    DenyAllHints deny;
    const auto no_spec = optimizeSimple(uops, {}, &deny);
    EXPECT_EQ(no_spec.outputLoads, 1u);
}

TEST(PassStoreForward, UnsafeStoreAbortsOnRuntimeAlias)
{
    std::vector<Uop> uops;
    uops.push_back(mkStore(UReg::ESI, 0, UReg::EBP));
    uops.push_back(mkStore(UReg::ECX, 0, UReg::EDI));
    uops.push_back(mkLoad(UReg::EAX, UReg::ESI, 0));
    uops.push_back(mkStore(UReg::ESI, 16, UReg::EAX));

    AllowAllHints allow;
    const auto frame = optimizeSimple(uops, {}, &allow);
    ASSERT_EQ(frame.outputLoads, 0u);

    // Non-aliasing execution commits and forwards the right value.
    {
        ArchState st;
        st.regs[unsigned(UReg::ESI)] = 0x100;
        st.regs[unsigned(UReg::ECX)] = 0x200;
        st.regs[unsigned(UReg::EBP)] = 42;
        x86::SparseMemory mem;
        const auto res = executeFrame(frame, st, mem);
        EXPECT_TRUE(res.committed());
        EXPECT_EQ(mem.read(0x110, 4), 42u);
    }
    // Aliasing execution aborts with a rollback.
    {
        ArchState st;
        st.regs[unsigned(UReg::ESI)] = 0x100;
        st.regs[unsigned(UReg::ECX)] = 0x100;   // B aliases A
        st.regs[unsigned(UReg::EBP)] = 42;
        x86::SparseMemory mem;
        const auto res = executeFrame(frame, st, mem);
        EXPECT_EQ(res.status,
                  FrameExecResult::Status::UNSAFE_CONFLICT);
        EXPECT_EQ(mem.read(0x100, 4), 0u);      // nothing committed
    }
}

TEST(PassDce, NeverRemovesStoresOrAsserts)
{
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 1));
    uops.push_back(mkAssert(Cond::NE));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EBX));

    OptConfig cfg = OptConfig::allOff();
    const auto frame = optimizeSimple(uops, cfg);
    EXPECT_EQ(frame.numUops(), 3u);     // only DCE ran; nothing is dead
}

TEST(PassDce, RemovesDeadTemporaries)
{
    std::vector<Uop> uops;
    // ET values are dead at the frame boundary by definition.
    uops.push_back(mkLimm(UReg::ET0, 1));
    uops.push_back(mkAluI(Op::ADD, UReg::ET1, UReg::ET0, 2, false));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops, OptConfig::allOff());
    EXPECT_EQ(frame.numUops(), 1u);
}

TEST(PassDce, KeepsArchLiveOuts)
{
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::EDI, 7));   // EDI is live-out
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops, OptConfig::allOff());
    EXPECT_EQ(frame.numUops(), 2u);
}

TEST(PassDce, KeepsFlagProducerForLiveOutFlags)
{
    std::vector<Uop> uops;
    // The CMP's flags are the frame's final flags state.
    uops.push_back(mkAluI(Op::CMP, UReg::NONE, UReg::EAX, 3));
    uops.push_back(mkStore(UReg::ESP, 0, UReg::EAX));

    const auto frame = optimizeSimple(uops, OptConfig::allOff());
    EXPECT_EQ(frame.numUops(), 2u);
}

// ---------------------------------------------------------------------
// Randomized equivalence property
// ---------------------------------------------------------------------

namespace {

/** Build a random but well-formed straight-line frame. */
std::vector<Uop>
randomFrame(Rng &rng)
{
    std::vector<Uop> uops;
    const unsigned n = 8 + unsigned(rng.below(40));
    for (unsigned i = 0; i < n; ++i) {
        const UReg dst = static_cast<UReg>(rng.below(8));
        const UReg a = static_cast<UReg>(rng.below(8));
        const UReg b = static_cast<UReg>(rng.below(8));
        switch (rng.below(7)) {
          case 0:
            uops.push_back(mkLimm(dst, int32_t(rng.below(1000))));
            break;
          case 1:
            uops.push_back(mkAlu(
                rng.chance(0.5) ? Op::ADD : Op::XOR, dst, a, b, true));
            break;
          case 2:
            uops.push_back(mkAluI(Op::ADD, dst, a,
                                  int32_t(rng.range(-64, 64)),
                                  rng.chance(0.3)));
            break;
          case 3:
            // Loads/stores confined to a small region off ESI.
            uops.push_back(
                mkLoad(dst, UReg::ESI, int32_t(rng.below(16) * 4)));
            break;
          case 4:
            uops.push_back(mkStore(UReg::ESI,
                                   int32_t(rng.below(16) * 4), a));
            break;
          case 5:
            uops.push_back(mkMov(dst, a));
            break;
          default:
            uops.push_back(mkAluI(Op::SUB, dst, a,
                                  int32_t(rng.range(-32, 32)),
                                  rng.chance(0.3)));
            break;
        }
    }
    return uops;
}

} // namespace

class OptimizerProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(OptimizerProperty, RandomFramesStayEquivalent)
{
    Rng rng(uint64_t(GetParam()) * 7919 + 3);
    const auto uops = randomFrame(rng);

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);
    EXPECT_LE(frame.numUops(), frame.inputUops);

    ArchState in;
    for (unsigned r = 0; r < 8; ++r)
        in.regs[r] = uint32_t(rng.next());
    in.regs[unsigned(UReg::ESI)] = 0x2000;  // memory region base

    x86::SparseMemory ref_mem, opt_mem;
    for (unsigned w = 0; w < 16; ++w) {
        const uint32_t v = uint32_t(rng.next());
        ref_mem.write(0x2000 + w * 4, 4, v);
        opt_mem.write(0x2000 + w * 4, 4, v);
    }

    const ArchState ref_out = runReference(uops, in, ref_mem);
    ArchState opt_state = in;
    const auto res = executeFrame(frame, opt_state, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(opt_state, ref_out);
    for (unsigned w = 0; w < 16; ++w) {
        EXPECT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                  ref_mem.read(0x2000 + w * 4, 4))
            << "memory word " << w;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerProperty,
                         ::testing::Range(0, 60));

TEST_P(OptimizerProperty, SoaAosRoundTripExecutesIdentically)
{
    // Differential representation check: dump the optimized SoA slab
    // to AoS Uop records, rebuild a fresh slab from them, and execute
    // both bodies from identical inputs.  Any field the slab fails to
    // round-trip — including the derived attr bitset the executor's
    // kind tests read — shows up as diverging live-outs or stores.
    Rng rng(uint64_t(GetParam()) * 104729 + 17);
    const auto uops = randomFrame(rng);

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);

    uop::UopSlab rt;
    rt.reserve(frame.code.size());
    for (size_t i = 0; i < frame.code.size(); ++i)
        rt.push(frame.code.get(i));
    EXPECT_TRUE(rt == frame.code) << "slab -> Uop -> slab is lossy";

    OptimizedFrame rebuilt = frame;
    rebuilt.code = std::move(rt);

    ArchState in;
    for (unsigned r = 0; r < 8; ++r)
        in.regs[r] = uint32_t(rng.next());
    in.regs[unsigned(UReg::ESI)] = 0x2000;

    x86::SparseMemory soa_mem, aos_mem;
    for (unsigned w = 0; w < 16; ++w) {
        const uint32_t v = uint32_t(rng.next());
        soa_mem.write(0x2000 + w * 4, 4, v);
        aos_mem.write(0x2000 + w * 4, 4, v);
    }

    ArchState soa_state = in, aos_state = in;
    const auto soa_res = executeFrame(frame, soa_state, soa_mem);
    const auto aos_res = executeFrame(rebuilt, aos_state, aos_mem);

    ASSERT_EQ(soa_res.status, aos_res.status);
    expectArchEqual(aos_state, soa_state);
    ASSERT_EQ(soa_res.memOps.size(), aos_res.memOps.size());
    for (size_t i = 0; i < soa_res.memOps.size(); ++i) {
        EXPECT_EQ(soa_res.memOps[i].addr, aos_res.memOps[i].addr) << i;
        EXPECT_EQ(soa_res.memOps[i].size, aos_res.memOps[i].size) << i;
        EXPECT_EQ(soa_res.memOps[i].data, aos_res.memOps[i].data) << i;
    }
    for (unsigned w = 0; w < 16; ++w) {
        EXPECT_EQ(aos_mem.read(0x2000 + w * 4, 4),
                  soa_mem.read(0x2000 + w * 4, 4))
            << "memory word " << w;
    }
}

// ---------------------------------------------------------------------
// Signed-overflow hardening (bugfix sweep): immediate folding in
// constprop/reassoc wraps modulo 2^32 instead of overflowing int32_t.
// Build with -DENABLE_SANITIZERS=ON to prove it — each test drives the
// exact folding expression that used to be UB.
// ---------------------------------------------------------------------

TEST(OverflowHardening, ReassocNegatesInt32MinWithoutUb)
{
    // A flags-dead SUB is rewritten to an ADD with the negated
    // immediate; negating INT32_MIN is the classic int32 UB case, and
    // stack-adjust chains really do reach it after folding.
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::SUB, UReg::ESP, UReg::ESP,
                          std::numeric_limits<int32_t>::min(), false));
    uops.push_back(mkAluI(Op::ADD, UReg::ESP, UReg::ESP, 16, false));
    uops.push_back(mkMov(UReg::EAX, UReg::ESP));

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);
    EXPECT_GT(stats.reassociations, 0u);

    ArchState in;
    in.regs[unsigned(UReg::ESP)] = 0x80001000u;
    x86::SparseMemory ref_mem, opt_mem;
    const ArchState ref = runReference(uops, in, ref_mem);
    ArchState out = in;
    const auto res = executeFrame(frame, out, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(out, ref);
    EXPECT_EQ(out.regs[unsigned(UReg::ESP)], 0x1010u);
}

TEST(OverflowHardening, ReassocImmediateAccumulationWraps)
{
    // Collapsing an ADD chain sums the immediates; two INT32_MAX
    // displacements overflow int32 and must wrap to 0xfffffffe.
    std::vector<Uop> uops;
    uops.push_back(mkAluI(Op::ADD, UReg::EAX, UReg::EAX,
                          std::numeric_limits<int32_t>::max(), false));
    uops.push_back(mkAluI(Op::ADD, UReg::EAX, UReg::EAX,
                          std::numeric_limits<int32_t>::max(), false));
    uops.push_back(mkMov(UReg::EBX, UReg::EAX));

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);
    EXPECT_GT(stats.reassociations, 0u);

    ArchState in;
    in.regs[unsigned(UReg::EAX)] = 5;
    x86::SparseMemory ref_mem, opt_mem;
    const ArchState ref = runReference(uops, in, ref_mem);
    ArchState out = in;
    const auto res = executeFrame(frame, out, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(out, ref);
    EXPECT_EQ(out.regs[unsigned(UReg::EAX)], 3u);   // 5 + 0xfffffffe
}

TEST(OverflowHardening, ConstPropAddressFoldWraps)
{
    // Folding a known-constant base into a memory displacement adds
    // two immediates whose int32 sum overflows; addresses are modular.
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::EBX, 0x7ffffff0));
    uops.push_back(mkStore(UReg::EBX, 0x20, UReg::EAX));
    uops.push_back(mkLoad(UReg::ECX, UReg::EBX, 0x20));

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);
    EXPECT_GT(stats.constantsFolded, 0u);

    ArchState in;
    in.regs[unsigned(UReg::EAX)] = 0xdeadbeef;
    x86::SparseMemory ref_mem, opt_mem;
    const ArchState ref = runReference(uops, in, ref_mem);
    ArchState out = in;
    const auto res = executeFrame(frame, out, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(out, ref);
    EXPECT_EQ(out.regs[unsigned(UReg::ECX)], 0xdeadbeefu);
    EXPECT_EQ(opt_mem.read(0x80000010u, 4), ref_mem.read(0x80000010u, 4));
}

TEST_P(OptimizerProperty, ExtremeImmediateChainsStayEquivalent)
{
    // Property sweep over chains built from boundary immediates: every
    // combination the folding passes collapse must match the
    // architectural reference bit-for-bit (and, under UBSan, must not
    // trip the signed-overflow checks).
    Rng rng(uint64_t(GetParam()) * 31337 + 7);
    static constexpr int32_t extremes[] = {
        std::numeric_limits<int32_t>::min(),
        std::numeric_limits<int32_t>::min() + 1,
        std::numeric_limits<int32_t>::max(),
        -1, 0, 1, 0x40000000, -0x40000000,
    };
    auto pick = [&] { return extremes[rng.below(8)]; };

    std::vector<Uop> uops;
    for (unsigned i = 0; i < 24; ++i) {
        const UReg dst = static_cast<UReg>(rng.below(6));
        const UReg a = static_cast<UReg>(rng.below(6));
        switch (rng.below(3)) {
          case 0:
            uops.push_back(mkLimm(dst, pick()));
            break;
          case 1:
            uops.push_back(
                mkAluI(Op::ADD, dst, a, pick(), rng.chance(0.2)));
            break;
          default:
            uops.push_back(
                mkAluI(Op::SUB, dst, a, pick(), rng.chance(0.2)));
            break;
        }
    }

    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);

    ArchState in;
    for (unsigned r = 0; r < 8; ++r)
        in.regs[r] = uint32_t(rng.next());
    x86::SparseMemory ref_mem, opt_mem;
    const ArchState ref = runReference(uops, in, ref_mem);
    ArchState out = in;
    const auto res = executeFrame(frame, out, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(out, ref);
}

TEST(Datapath, PipelineDepthLimitsInFlightFrames)
{
    OptimizerPipeline pipe(3, 10);
    EXPECT_TRUE(pipe.schedule(0, 100).has_value());     // done at 1000
    EXPECT_TRUE(pipe.schedule(1, 100).has_value());
    EXPECT_TRUE(pipe.schedule(2, 100).has_value());
    EXPECT_FALSE(pipe.schedule(3, 100).has_value());    // saturated
    EXPECT_EQ(pipe.dropped(), 1u);
    EXPECT_TRUE(pipe.schedule(1001, 100).has_value());  // drained
}

TEST(Datapath, LatencyIsTenCyclesPerUop)
{
    OptimizerPipeline pipe;
    const auto done = pipe.schedule(100, 32);
    ASSERT_TRUE(done.has_value());
    EXPECT_EQ(*done, 100u + 320u);
    EXPECT_EQ(Optimizer::latencyFor(32), 320u);
}

TEST(Datapath, PrimitiveCountsAccumulate)
{
    const auto [uops, blocks] = figure2Frame();
    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);
    EXPECT_GT(frame.prims.parentLookups, 0u);
    EXPECT_GT(frame.prims.invalidates, 0u);
    PrimitiveLatency lat;
    EXPECT_GT(lat.cyclesFor(frame.prims), frame.prims.total() / 2);
}

// ---------------------------------------------------------------------
// Inter-block scope (the fourth column of Figure 2)
// ---------------------------------------------------------------------

TEST(Figure2, InterBlockScopeMatchesPaperColumn)
{
    const auto [uops, blocks] = figure2Frame();
    OptConfig cfg;
    cfg.scope = Scope::INTER_BLOCK;
    Optimizer optimizer(cfg);
    OptStats stats;
    const auto frame = optimizer.optimize(uops, blocks, nullptr, stats);

    // Paper, inter-block column: 12 micro-ops survive.  Store
    // forwarding removes the EBP restore (14) — every exit then binds
    // the live-in EBP — but must keep the EBX restore (12), because
    // the intermediate exit after the assertion needs the loaded
    // parameter value while the fall-through needs the saved one.
    EXPECT_EQ(frame.numUops(), 12u);
    EXPECT_EQ(frame.outputLoads, 4u);   // one of the five removed
}

TEST(Figure2, ScopeOrderingOnUopCounts)
{
    const auto [uops, blocks] = figure2Frame();
    OptStats stats;
    auto count = [&](Scope scope) {
        OptConfig cfg;
        cfg.scope = scope;
        return Optimizer(cfg)
            .optimize(uops, blocks, nullptr, stats)
            .numUops();
    };
    const unsigned block = count(Scope::BLOCK);
    const unsigned inter = count(Scope::INTER_BLOCK);
    const unsigned frame = count(Scope::FRAME);
    // 13 > 12 > 10: each widening of scope removes more.
    EXPECT_GT(block, inter);
    EXPECT_GT(inter, frame);
    EXPECT_EQ(frame, 10u);
}

TEST(InterBlock, FramesStayEquivalentOnWorkloads)
{
    // Inter-block-scope frames must still transform state correctly.
    Rng rng(4242);
    for (int trial = 0; trial < 40; ++trial) {
        const auto uops = randomFrame(rng);
        // Mark halfway as a second block.
        std::vector<uint16_t> blocks(uops.size(), 0);
        for (size_t i = uops.size() / 2; i < uops.size(); ++i)
            blocks[i] = 1;

        OptConfig cfg;
        cfg.scope = Scope::INTER_BLOCK;
        Optimizer optimizer(cfg);
        OptStats stats;
        const auto frame =
            optimizer.optimize(uops, blocks, nullptr, stats);

        ArchState in;
        for (unsigned r = 0; r < 8; ++r)
            in.regs[r] = uint32_t(rng.next());
        in.regs[unsigned(UReg::ESI)] = 0x2000;

        x86::SparseMemory ref_mem, opt_mem;
        for (unsigned w = 0; w < 16; ++w) {
            const uint32_t v = uint32_t(rng.next());
            ref_mem.write(0x2000 + w * 4, 4, v);
            opt_mem.write(0x2000 + w * 4, 4, v);
        }
        const ArchState ref_out = runReference(uops, in, ref_mem);
        ArchState opt_state = in;
        const auto res = executeFrame(frame, opt_state, opt_mem);
        ASSERT_TRUE(res.committed());
        expectArchEqual(opt_state, ref_out);
        for (unsigned w = 0; w < 16; ++w) {
            ASSERT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                      ref_mem.read(0x2000 + w * 4, 4));
        }
    }
}

// ---------------------------------------------------------------------
// Pass-mask property sweep: any subset of optimizations preserves
// semantics on random frames.
// ---------------------------------------------------------------------

class PassMaskProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(PassMaskProperty, AnyOptimizationSubsetStaysEquivalent)
{
    const auto [mask, seed] = GetParam();
    OptConfig cfg;
    cfg.nopRemoval = mask & 1;
    cfg.assertCombine = mask & 2;
    cfg.constProp = mask & 4;
    cfg.reassoc = mask & 8;
    cfg.cse = mask & 16;
    cfg.storeForward = mask & 32;

    Rng rng(uint64_t(seed) * 1013904223 + mask);
    const auto uops = randomFrame(rng);

    Optimizer optimizer(cfg);
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, nullptr, stats);

    ArchState in;
    for (unsigned r = 0; r < 8; ++r)
        in.regs[r] = uint32_t(rng.next());
    in.regs[unsigned(UReg::ESI)] = 0x2000;

    x86::SparseMemory ref_mem, opt_mem;
    for (unsigned w = 0; w < 16; ++w) {
        const uint32_t v = uint32_t(rng.next());
        ref_mem.write(0x2000 + w * 4, 4, v);
        opt_mem.write(0x2000 + w * 4, 4, v);
    }
    const ArchState ref_out = runReference(uops, in, ref_mem);
    ArchState opt_state = in;
    const auto res = executeFrame(frame, opt_state, opt_mem);
    ASSERT_TRUE(res.committed());
    expectArchEqual(opt_state, ref_out);
    for (unsigned w = 0; w < 16; ++w) {
        ASSERT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                  ref_mem.read(0x2000 + w * 4, 4));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Masks, PassMaskProperty,
    ::testing::Combine(::testing::Values(0, 1, 2, 4, 8, 16, 32, 63,
                                         21, 42),
                       ::testing::Range(0, 6)));

// ---------------------------------------------------------------------
// Speculative memory: frames with unknown-base stores either commit
// with reference semantics or detect the conflict and roll back.
// ---------------------------------------------------------------------

class SpeculativeMemProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SpeculativeMemProperty, ConflictOrCorrectness)
{
    Rng rng(uint64_t(GetParam()) * 2654435761u + 17);

    // store [ESI+0]; store [ECX+0] (unknown base); load [ESI+0];
    // plus random filler.
    std::vector<Uop> uops;
    uops.push_back(mkStore(UReg::ESI, 0, UReg::EBP));
    uops.push_back(mkStore(UReg::ECX, 0, UReg::EDI));
    uops.push_back(mkLoad(UReg::EAX, UReg::ESI, 0));
    uops.push_back(mkStore(UReg::ESI, 16, UReg::EAX));
    const auto filler = randomFrame(rng);
    uops.insert(uops.end(), filler.begin(), filler.end());

    AllowAllHints allow;
    Optimizer optimizer;
    OptStats stats;
    const auto frame = optimizer.optimize(uops, {}, &allow, stats);

    // Random runtime pointers: ECX aliases ESI in ~1/4 of trials.
    ArchState in;
    for (unsigned r = 0; r < 8; ++r)
        in.regs[r] = uint32_t(rng.next());
    in.regs[unsigned(UReg::ESI)] = 0x2000;
    in.regs[unsigned(UReg::ECX)] =
        rng.chance(0.25) ? 0x2000 : 0x3000 + uint32_t(rng.below(16)) * 4;

    x86::SparseMemory ref_mem, opt_mem;
    for (unsigned w = 0; w < 16; ++w) {
        const uint32_t v = uint32_t(rng.next());
        ref_mem.write(0x2000 + w * 4, 4, v);
        opt_mem.write(0x2000 + w * 4, 4, v);
    }

    ArchState opt_state = in;
    const auto res = executeFrame(frame, opt_state, opt_mem);
    if (!res.committed()) {
        // Rollback must leave state untouched.
        EXPECT_EQ(res.status,
                  FrameExecResult::Status::UNSAFE_CONFLICT);
        expectArchEqual(opt_state, in);
        for (unsigned w = 0; w < 16; ++w) {
            EXPECT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                      ref_mem.read(0x2000 + w * 4, 4));
        }
        return;
    }
    // Committed: must match the unoptimized semantics exactly.
    const ArchState ref_out = runReference(uops, in, ref_mem);
    expectArchEqual(opt_state, ref_out);
    for (unsigned w = 0; w < 16; ++w) {
        EXPECT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                  ref_mem.read(0x2000 + w * 4, 4));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpeculativeMemProperty,
                         ::testing::Range(0, 40));

// ---------------------------------------------------------------------
// Remapper edge cases
// ---------------------------------------------------------------------

TEST(Remapper, SlotMWritesMAndSourcesBecomeParentIndices)
{
    // A dependence chain: every uop reads the previous one's result.
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::EAX, 5));
    for (unsigned i = 0; i < 6; ++i)
        uops.push_back(mkAluI(Op::ADD, UReg::EAX, UReg::EAX, 1));

    const OptBuffer buf = Remapper().remap(uops);
    ASSERT_EQ(buf.size(), 7u);
    for (size_t i = 1; i < buf.size(); ++i) {
        const Operand &src = buf.at(i).srcA;
        ASSERT_TRUE(src.isProd()) << "slot " << i;
        EXPECT_EQ(src.idx, i - 1) << "slot " << i;
    }
    // The final exit binds EAX to the last producer slot.
    const Operand &out = buf.finalExit().regs[unsigned(UReg::EAX)];
    ASSERT_TRUE(out.isProd());
    EXPECT_EQ(out.idx, buf.size() - 1);
    // Untouched registers stay bound to their live-in values.
    EXPECT_TRUE(buf.finalExit().regs[unsigned(UReg::EBX)].isLiveIn());
}

TEST(Remapper, HandlesTheConstructorMaximumFrame)
{
    // The constructor caps frames at 256 micro-ops; remapping a
    // maximum frame must preserve every slot and the write-after-write
    // renaming (all 256 write EAX, only the last one reaches the exit).
    const core::ConstructorConfig ctor_cfg;
    const unsigned n = ctor_cfg.maxUops;
    ASSERT_EQ(n, 256u);
    std::vector<Uop> uops;
    for (unsigned i = 0; i < n; ++i)
        uops.push_back(mkLimm(UReg::EAX, int32_t(i)));

    const OptBuffer buf = Remapper().remap(uops);
    ASSERT_EQ(buf.size(), n);
    const Operand &out = buf.finalExit().regs[unsigned(UReg::EAX)];
    ASSERT_TRUE(out.isProd());
    EXPECT_EQ(out.idx, n - 1);

    // And the full optimizer still produces an executable body: DCE
    // collapses the dead rewrites down to the surviving tail.
    OptStats stats;
    const auto frame = Optimizer().optimize(uops, {}, nullptr, stats);
    EXPECT_LT(frame.numUops(), n);
    ArchState st;
    x86::SparseMemory mem;
    ASSERT_TRUE(executeFrame(frame, st, mem).committed());
    EXPECT_EQ(st.regs[unsigned(UReg::EAX)], n - 1);
}

TEST(Remapper, PerBlockExitsSnapshotEveryBoundary)
{
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::EAX, 1));
    uops.push_back(mkLimm(UReg::EBX, 2));
    uops.push_back(mkLimm(UReg::EAX, 3));
    uops.push_back(mkLimm(UReg::ECX, 4));
    const std::vector<uint16_t> blocks{0, 0, 1, 1};

    const OptBuffer buf = Remapper().remap(uops, blocks, true);
    ASSERT_EQ(buf.exits().size(), 2u);
    // Block 0's exit sees only the first two writes...
    const ExitBinding &e0 = buf.exits()[0];
    EXPECT_EQ(e0.block, 0u);
    ASSERT_TRUE(e0.regs[unsigned(UReg::EAX)].isProd());
    EXPECT_EQ(e0.regs[unsigned(UReg::EAX)].idx, 0u);
    EXPECT_TRUE(e0.regs[unsigned(UReg::ECX)].isLiveIn());
    // ...while the frame exit sees the block-1 overwrites.
    const ExitBinding &e1 = buf.finalExit();
    EXPECT_EQ(e1.block, 1u);
    ASSERT_TRUE(e1.regs[unsigned(UReg::EAX)].isProd());
    EXPECT_EQ(e1.regs[unsigned(UReg::EAX)].idx, 2u);
    EXPECT_EQ(e1.regs[unsigned(UReg::ECX)].idx, 3u);

    // Without per-block exits only the frame boundary is recorded.
    EXPECT_EQ(Remapper().remap(uops, blocks, false).exits().size(), 1u);
}

TEST(RemapperDeathTest, BlockAnnotationLengthMismatchPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::vector<Uop> uops;
    uops.push_back(mkLimm(UReg::EAX, 1));
    uops.push_back(mkLimm(UReg::EBX, 2));
    const std::vector<uint16_t> short_blocks{0};
    EXPECT_DEATH(Remapper().remap(uops, short_blocks),
                 "block annotation length mismatch");
}

// ---------------------------------------------------------------------
// Per-pass properties: each optimization alone, on seeded random
// frames, reaches a fixed point within the iteration bound (re-running
// it changes nothing) and preserves the architectural live-outs under
// FrameExec.
// ---------------------------------------------------------------------

namespace {

/** Canonical text form of a body, for structural comparison. */
std::string
bodySignature(const OptimizedFrame &frame)
{
    std::string sig;
    auto operand = [&sig](const Operand &op) {
        switch (op.kind) {
          case Operand::Kind::NONE:
            sig += '-';
            break;
          case Operand::Kind::LIVE_IN:
            sig += 'L';
            sig += std::to_string(unsigned(op.reg));
            break;
          case Operand::Kind::PROD:
            sig += 'P';
            sig += std::to_string(op.idx);
            break;
        }
        if (op.flagsView)
            sig += 'f';
        sig += ' ';
    };
    for (const FrameUop fu : frame) {
        sig += opName(fu.uop.op);
        sig += ' ';
        sig += std::to_string(fu.uop.imm);
        sig += ' ';
        operand(fu.srcA);
        operand(fu.srcB);
        operand(fu.srcC);
        operand(fu.flagsSrc);
        sig += fu.unsafe ? "U" : "";
        sig += '\n';
    }
    sig += "exit ";
    for (unsigned r = 0; r < NUM_UREGS; ++r)
        operand(frame.exit.regs[r]);
    operand(frame.exit.flags);
    return sig;
}

} // namespace

class SinglePassProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(SinglePassProperty, IdempotentAndEquivalentOn200RandomFrames)
{
    const unsigned bit = unsigned(GetParam());
    const OptConfig cfg =
        OptConfig::fromPassMask(uint8_t(1u << bit));
    OptConfig extra = cfg;
    extra.maxIterations = cfg.maxIterations + 2;
    AllowAllHints allow;

    for (uint64_t seed = 0; seed < 200; ++seed) {
        Rng rng(seed * 6364136223846793005ULL + bit);
        const auto uops = randomFrame(rng);

        OptStats stats;
        const auto frame =
            Optimizer(cfg).optimize(uops, {}, &allow, stats);
        const auto again =
            Optimizer(extra).optimize(uops, {}, &allow, stats);
        // Fixed point within the iteration bound: extra pipeline
        // iterations must not change the body.
        ASSERT_EQ(bodySignature(frame), bodySignature(again))
            << OptConfig::passBitName(bit) << " seed " << seed;

        ArchState in;
        for (unsigned r = 0; r < 8; ++r)
            in.regs[r] = uint32_t(rng.next());
        in.regs[unsigned(UReg::ESI)] = 0x2000;

        x86::SparseMemory ref_mem, opt_mem;
        for (unsigned w = 0; w < 16; ++w) {
            const uint32_t v = uint32_t(rng.next());
            ref_mem.write(0x2000 + w * 4, 4, v);
            opt_mem.write(0x2000 + w * 4, 4, v);
        }
        const ArchState ref_out = runReference(uops, in, ref_mem);
        ArchState opt_state = in;
        const auto res = executeFrame(frame, opt_state, opt_mem);
        ASSERT_TRUE(res.committed())
            << OptConfig::passBitName(bit) << " seed " << seed;
        expectArchEqual(opt_state, ref_out);
        for (unsigned w = 0; w < 16; ++w) {
            ASSERT_EQ(opt_mem.read(0x2000 + w * 4, 4),
                      ref_mem.read(0x2000 + w * 4, 4))
                << OptConfig::passBitName(bit) << " seed " << seed
                << " word " << w;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Passes, SinglePassProperty,
    ::testing::Range(0, int(OptConfig::NUM_PASS_BITS)),
    [](const ::testing::TestParamInfo<int> &param_info) {
        return std::string(
            OptConfig::passBitName(unsigned(param_info.param)));
    });
