#include "trace/workload.hh"

#include <cstring>

#include "util/logging.hh"
#include "util/rng.hh"
#include "x86/asmbuilder.hh"

namespace replay::trace {

using x86::AsmBuilder;
using x86::Cond;
using x86::memAbs;
using x86::memAt;
using x86::Mnem;
using x86::Reg;

const char *
appTypeName(AppType type)
{
    switch (type) {
      case AppType::SPECint:  return "SPECint";
      case AppType::Business: return "Business";
      case AppType::Content:  return "Content";
    }
    return "?";
}

namespace {

/**
 * Generates one program from a personality.
 *
 * Register conventions in the generated code:
 *   ESI — base of the integer data array (set once, read-only in procs)
 *   ECX — global iteration counter (owned by the main loop)
 *   EBP — frame pointer inside procedures (args at [EBP+8], [EBP+12])
 *   EAX, EBX, EDX, EDI — scratch (EBX/EDI are callee-saved)
 *
 * Every conditional branch in hot code tests bits of words from a
 * pre-filled random table, so branch bias is a statistical property of
 * the personality, observable identically by the branch predictor and
 * the frame constructor's bias table.
 */
class Synthesizer
{
  public:
    explicit Synthesizer(const Personality &p)
        : p_(p), rng_(p.seed), b_(0x00401000)
    {
    }

    x86::Program
    build()
    {
        emitData();

        // Entry block: jump over the procedures to the main loop.
        b_.jmp("main_entry");

        for (unsigned i = 0; i < p_.numHotProcs; ++i)
            emitProcedure(i);

        emitMain();
        return b_.build();
    }

  private:
    static constexpr unsigned RND_WORDS = 1024;

    std::string
    nextLabel()
    {
        // Built via insert rather than "L" + to_string(...): the
        // concatenation form trips GCC 12's -Wrestrict false positive
        // inside libstdc++ (GCC PR105651).
        std::string label = std::to_string(labelCounter_++);
        label.insert(label.begin(), 'L');
        return label;
    }

    void
    emitData()
    {
        const uint32_t data_bytes = p_.dataKB * 1024;
        arr_ = b_.dataRegion("arr", data_bytes);
        std::vector<uint32_t> init(data_bytes / 4);
        for (auto &w : init)
            w = uint32_t(rng_.next());
        b_.dataWords("arr", init);

        rnd_ = b_.dataRegion("rnd", RND_WORDS * 4);
        std::vector<uint32_t> rnd_init(RND_WORDS);
        for (auto &w : rnd_init)
            w = uint32_t(rng_.next());
        b_.dataWords("rnd", rnd_init);

        alias_ = b_.dataRegion("alias", 256);

        fp_ = b_.dataRegion("fp", 1024);
        std::vector<uint32_t> fp_init(256);
        for (auto &w : fp_init) {
            const float v = 1.0f + float(rng_.real());
            std::memcpy(&w, &v, 4);
        }
        b_.dataWords("fp", fp_init);
    }

    /**
     * Load a fresh random word into EDX, indexed by the counter argument
     * at [EBP+8] (inside procedures) or ECX (in the main loop), salted
     * so different sites see independent streams.
     */
    void
    emitFreshRandom(bool in_proc)
    {
        // ECX holds the iteration counter and is callee-preserved, so
        // hot code keeps it in the register (as compiled code would)
        // instead of reloading the stack argument.
        (void)in_proc;
        b_.movRR(Reg::EDX, Reg::ECX);
        b_.addRI(Reg::EDX, int32_t(rng_.below(RND_WORDS)));
        b_.andRI(Reg::EDX, RND_WORDS - 1);
        b_.movRM(Reg::EDX,
                 memAt(Reg::NONE, Reg::EDX, 4, int32_t(rnd_)));
    }

    Reg
    scratch()
    {
        static const Reg regs[] = {Reg::EAX, Reg::EBX, Reg::EDI};
        return regs[rng_.below(3)];
    }

    /** A short burst of register ALU work. */
    void
    segAlu(bool in_proc)
    {
        // Seed the scratch registers with defined values.
        (void)in_proc;
        b_.movRR(Reg::EAX, Reg::ECX);
        const unsigned n = 2 + unsigned(rng_.below(4));
        for (unsigned i = 0; i < n; ++i) {
            const Reg dst = scratch();
            switch (rng_.below(6)) {
              case 0: b_.addRR(dst, scratch()); break;
              case 1: b_.subRI(dst, int32_t(rng_.below(64))); break;
              case 2: b_.xorRR(dst, scratch()); break;
              case 3: b_.andRI(dst, int32_t(0xffff)); break;
              case 4: b_.imulRRI(dst, scratch(),
                                 int32_t(3 + rng_.below(5))); break;
              default: b_.shlRI(dst, uint8_t(1 + rng_.below(3))); break;
            }
        }
        // Consume the result so the work is live.
        b_.movMR(memAt(Reg::ESI, wordOff()), Reg::EAX);
    }

    /** Word-aligned offset within the first half of the data region
     *  (so scaled-index accesses on top of it stay in bounds). */
    int32_t
    halfOff()
    {
        const uint32_t words = p_.dataKB * 1024 / 4;
        return int32_t(rng_.below(words / 2) * 4);
    }

    int32_t
    wordOff()
    {
        // Leave a 64-word margin: segment emitters touch up to +56
        // bytes past the returned offset (unrolled loop bodies).
        const uint32_t words = p_.dataKB * 1024 / 4;
        panic_if(words <= 128, "dataKB too small");
        return int32_t(rng_.below(words - 64) * 4);
    }

    /**
     * Load/compute/store on a counter-indexed slot, with optional
     * redundant re-loads (safe CSE / store-forwarding opportunities).
     */
    void
    segMemCompute(bool in_proc)
    {
        (void)in_proc;
        b_.movRR(Reg::EAX, Reg::ECX);
        // Per-instance salt: distinct index chains, so cross-segment
        // value numbering finds nothing unless redundancy is asked for.
        b_.addRI(Reg::EAX, int32_t(rng_.below(4096)));
        // Mask to a quarter of the working set and give every segment
        // instance its own region, so cross-segment address collisions
        // (and the accidental load redundancy they would hand CSE) are
        // controlled by redundantLoadRate alone.
        const uint32_t ws_mask = p_.dataKB * 1024 / 16 - 1;
        b_.andRI(Reg::EAX, int32_t(ws_mask & ~3U));
        const int32_t inst_off = halfOff() & ~15;
        const auto slot = memAt(Reg::ESI, Reg::EAX, 4, inst_off);
        const auto slot4 = memAt(Reg::ESI, Reg::EAX, 4, inst_off + 4);
        const auto slot8 = memAt(Reg::ESI, Reg::EAX, 4, inst_off + 8);

        b_.movRM(Reg::EBX, slot);
        b_.addRM(Reg::EBX, slot4);
        if (rng_.chance(p_.redundantLoadRate)) {
            b_.movRM(Reg::EDI, slot);           // redundant load
            b_.addRR(Reg::EBX, Reg::EDI);
        }
        b_.movMR(slot8, Reg::EBX);
        if (rng_.chance(p_.redundantLoadRate)) {
            b_.movRM(Reg::EDI, slot8);          // store-forwardable load
            b_.xorRR(Reg::EBX, Reg::EDI);
            b_.movMR(slot4, Reg::EBX);
        }
    }

    /** Statically-addressed redundant-load cluster (bzip2 style). */
    void
    segRedundantStatic()
    {
        const int32_t o = wordOff() & ~15;
        b_.movRM(Reg::EAX, memAt(Reg::ESI, o));
        b_.addRM(Reg::EAX, memAt(Reg::ESI, o + 4));
        b_.movRM(Reg::EBX, memAt(Reg::ESI, o));        // redundant
        b_.addRR(Reg::EBX, Reg::EAX);
        b_.movMR(memAt(Reg::ESI, o + 8), Reg::EBX);
        b_.movRM(Reg::EDI, memAt(Reg::ESI, o + 4));    // redundant
        b_.addRR(Reg::EDI, Reg::EBX);
        b_.movMR(memAt(Reg::ESI, o + 12), Reg::EDI);
    }

    /** A highly-biased branch around a cold block. */
    void
    segBiasedBranch(bool in_proc)
    {
        emitFreshRandom(in_proc);
        const std::string skip = nextLabel();
        const uint32_t m = uint32_t(x86::Reg::NONE);
        (void)m;
        const uint32_t bias_mask = (1u << p_.biasBits) - 1;
        b_.testRI(Reg::EDX, int32_t(bias_mask));
        b_.jcc(Cond::NE, skip);                 // taken with p = 1-2^-k
        // Cold block, rarely executed.
        b_.movRM(Reg::EAX, memAt(Reg::ESI, wordOff()));
        b_.addRI(Reg::EAX, 7);
        b_.movMR(memAt(Reg::ESI, wordOff()), Reg::EAX);
        b_.label(skip);
    }

    /** A poorly-predictable diamond; breaks frame construction. */
    void
    segUnbiasedBranch(bool in_proc)
    {
        emitFreshRandom(in_proc);
        const std::string els = nextLabel();
        const std::string join = nextLabel();
        b_.testRI(Reg::EDX, 1 << int(rng_.below(8)));
        b_.jcc(Cond::E, els);
        b_.addRI(Reg::EAX, 13);
        b_.xorRR(Reg::EBX, Reg::EAX);
        b_.jmp(join);
        b_.label(els);
        b_.subRI(Reg::EAX, 9);
        b_.orRR(Reg::EBX, Reg::EAX);
        b_.label(join);
        b_.movMR(memAt(Reg::ESI, wordOff()), Reg::EBX);
    }

    /** A counted inner loop; body redundancy follows the personality. */
    void
    segLoop()
    {
        const std::string head = nextLabel();
        const int32_t o = wordOff() & ~63;
        b_.movRI(Reg::EDI, int32_t(p_.loopTrip));
        b_.label(head);
        for (unsigned c = 0; c < p_.loopUnroll; ++c) {
            const int32_t co = o + int32_t(c) * 16;
            b_.movRM(Reg::EAX, memAt(Reg::ESI, co));
            if (rng_.chance(p_.redundantLoadRate))
                b_.addRM(Reg::EAX, memAt(Reg::ESI, co)); // redundant
            else
                b_.addRI(Reg::EAX, int32_t(1 + rng_.below(9)));
            b_.movRM(Reg::EBX, memAt(Reg::ESI, co + 4));
            b_.addRR(Reg::EAX, Reg::EBX);
            b_.movMR(memAt(Reg::ESI, co + 8), Reg::EAX);
        }
        b_.decR(Reg::EDI);
        b_.jcc(Cond::NE, head);
    }

    /** Stores through a runtime-random pointer (Excel's unsafe-store
     *  aliasing pattern): store A, may-alias store B, load from A. */
    void
    segAlias(bool in_proc)
    {
        emitFreshRandom(in_proc);
        const int32_t a_addr = int32_t(alias_);
        const uint32_t off_mask = ((1u << p_.aliasMaskBits) - 1) << 2;
        b_.movRR(Reg::EBX, Reg::EDX);
        b_.andRI(Reg::EBX, int32_t(off_mask));
        b_.addRI(Reg::EBX, a_addr);             // EBX aliases A when 0
        b_.movMR(memAbs(a_addr), Reg::EDX);     // store A
        b_.movMR(memAt(Reg::EBX, 0), Reg::EAX); // store B (may alias A)
        b_.movRM(Reg::EDI, memAbs(a_addr));     // load A (speculative SF)
        b_.addRI(Reg::EDI, 1);
        b_.movMR(memAbs(a_addr + 64), Reg::EDI);
    }

    /** Scalar FP kernel. */
    void
    segFp()
    {
        const int32_t in0 = int32_t(fp_ + rng_.below(64) * 4);
        const int32_t in1 = int32_t(fp_ + 256 + rng_.below(64) * 4);
        const int32_t out = int32_t(fp_ + 512 + rng_.below(64) * 4);
        b_.fld(x86::FReg::F0, memAbs(in0));
        b_.fld(x86::FReg::F1, memAbs(in1));
        b_.fopFRR(Mnem::FADD, x86::FReg::F0, x86::FReg::F1);
        b_.fopFRR(Mnem::FMUL, x86::FReg::F0, x86::FReg::F1);
        if (rng_.chance(0.3))
            b_.fopFRR(Mnem::FDIV, x86::FReg::F0, x86::FReg::F1);
        b_.fst(memAbs(out), x86::FReg::F0);
    }

    /** x86 DIV with its fixed EDX:EAX register binding. */
    void
    segDiv(bool in_proc)
    {
        emitFreshRandom(in_proc);
        b_.movRR(Reg::EBX, Reg::EDX);
        b_.andRI(Reg::EBX, 0xff);
        b_.orRI(Reg::EBX, 1);                   // divisor != 0
        (void)in_proc;
        b_.movRR(Reg::EAX, Reg::ECX);
        b_.xorRR(Reg::EDX, Reg::EDX);
        b_.divR(Reg::EBX);
        b_.movMR(memAt(Reg::ESI, wordOff()), Reg::EAX);
    }

    /** Address arithmetic through LEA and a dependent access. */
    void
    segLea(bool in_proc)
    {
        (void)in_proc;
        b_.movRR(Reg::EAX, Reg::ECX);
        b_.addRI(Reg::EAX, int32_t(rng_.below(4096)));
        const uint32_t ws_mask = p_.dataKB * 1024 / 16 - 1;
        b_.andRI(Reg::EAX, int32_t(ws_mask & ~7U));
        b_.lea(Reg::EBX,
               memAt(Reg::ESI, Reg::EAX, 4, halfOff() & ~7));
        b_.movRM(Reg::EDI, memAt(Reg::EBX, 0));
        b_.addRI(Reg::EDI, 3);
        b_.movMR(memAt(Reg::EBX, 4), Reg::EDI);
    }

    /** Jump-table dispatch (indirect branch, frame terminator). */
    void
    segJumpTable(bool in_proc)
    {
        const unsigned n = p_.jumpTableSize;
        panic_if(!n || (n & (n - 1)), "jumpTableSize must be power of 2");
        const std::string tbl = "tbl" + std::to_string(labelCounter_);
        const uint32_t tbl_addr = b_.dataRegion(tbl, n * 4);
        std::vector<std::string> cases(n);
        for (unsigned i = 0; i < n; ++i) {
            cases[i] = nextLabel();
            b_.dataWordLabel(tbl, i, cases[i]);
        }
        const std::string join = nextLabel();

        emitFreshRandom(in_proc);
        b_.movRR(Reg::EAX, Reg::EDX);
        b_.andRI(Reg::EAX, int32_t(n - 1));
        b_.movRM(Reg::EAX,
                 memAt(Reg::NONE, Reg::EAX, 4, int32_t(tbl_addr)));
        b_.jmpR(Reg::EAX);
        for (unsigned i = 0; i < n; ++i) {
            b_.label(cases[i]);
            b_.movRM(Reg::EBX, memAt(Reg::ESI, wordOff()));
            b_.addRI(Reg::EBX, int32_t(i * 3 + 1));
            b_.movMR(memAt(Reg::ESI, wordOff()), Reg::EBX);
            b_.jmp(join);
        }
        b_.label(join);
    }

    /** Emit one body segment chosen by the personality's mix. */
    void
    emitSegment(bool in_proc)
    {
        struct Choice
        {
            double weight;
            int kind;
        };
        const Choice choices[] = {
            {p_.memSegRate, 0},       {p_.biasedBranchRate, 1},
            {p_.unbiasedBranchRate, 2}, {p_.loopRate, 3},
            {p_.aliasSegRate, 4},     {p_.fpSegRate, 5},
            {p_.divSegRate, 6},       {p_.leaSegRate, 7},
            {p_.indirectRate, 8},
        };
        double total = 0;
        for (const auto &c : choices)
            total += c.weight;
        // Whatever weight is left (up to 1.0) goes to plain ALU work.
        const double alu_weight = total < 1.0 ? 1.0 - total : 0.1;
        double pick = rng_.real() * (total + alu_weight);
        for (const auto &c : choices) {
            if (pick < c.weight) {
                switch (c.kind) {
                  case 0:
                    if (rng_.chance(p_.redundantLoadRate * 0.6))
                        segRedundantStatic();
                    else
                        segMemCompute(in_proc);
                    return;
                  case 1: segBiasedBranch(in_proc); return;
                  case 2: segUnbiasedBranch(in_proc); return;
                  case 3: segLoop(); return;
                  case 4: segAlias(in_proc); return;
                  case 5: segFp(); return;
                  case 6: segDiv(in_proc); return;
                  case 7: segLea(in_proc); return;
                  default: segJumpTable(in_proc); return;
                }
            }
            pick -= c.weight;
        }
        segAlu(in_proc);
    }

    void
    emitProcedure(unsigned idx)
    {
        b_.label("proc" + std::to_string(idx));
        // Prologue (the crafty pattern from Figure 2).
        b_.pushR(Reg::EBP);
        b_.movRR(Reg::EBP, Reg::ESP);
        b_.pushR(Reg::EBX);
        b_.pushR(Reg::EDI);
        const bool save_esi = p_.calleeSaves >= 3;
        if (save_esi)
            b_.pushR(Reg::ESI);

        // Parameter loads (forwardable from the caller's pushes when
        // the call is inside a frame).
        b_.movRM(Reg::EAX, memAt(Reg::EBP, 8));
        b_.movRM(Reg::EBX, memAt(Reg::EBP, 12));
        b_.orRR(Reg::EBX, Reg::EAX);            // touch both params

        for (unsigned s = 0; s < p_.segmentsPerProc; ++s) {
            // Per-segment deterministic stream: changing one
            // personality knob must not reshuffle every other
            // segment's content.
            rng_.reseed(p_.seed * 7919 + idx * 131 + s * 17 + 5);
            emitSegment(true);
        }

        // Epilogue.
        if (save_esi)
            b_.popR(Reg::ESI);
        b_.popR(Reg::EDI);
        b_.popR(Reg::EBX);
        b_.popR(Reg::EBP);
        b_.ret();
    }

    void
    emitMain()
    {
        b_.label("main_entry");
        b_.movRI(Reg::ESI, int32_t(arr_));
        b_.xorRR(Reg::ECX, Reg::ECX);
        b_.label("main_loop");
        b_.addRI(Reg::ECX, 1);

        for (unsigned i = 0; i < p_.numHotProcs; ++i) {
            // Occasional inline segment between calls.
            rng_.reseed(p_.seed * 104729 + i * 31 + 7);
            if (rng_.chance(0.35))
                emitSegment(false);
            b_.pushR(Reg::ESI);
            b_.pushR(Reg::ECX);
            b_.call("proc" + std::to_string(i));
            b_.addRI(Reg::ESP, 8);
        }
        b_.jmp("main_loop");
    }

    Personality p_;
    Rng rng_;
    AsmBuilder b_;
    unsigned labelCounter_ = 0;
    uint32_t arr_ = 0;
    uint32_t rnd_ = 0;
    uint32_t alias_ = 0;
    uint32_t fp_ = 0;
};

} // anonymous namespace

x86::Program
synthesizeProgram(const Personality &personality)
{
    fatal_if(personality.dataKB == 0 ||
             (personality.dataKB & (personality.dataKB - 1)),
             "dataKB must be a power of two");
    Synthesizer synth(personality);
    return synth.build();
}

x86::Program
Workload::buildProgram(unsigned trace_idx) const
{
    fatal_if(trace_idx >= numTraces, "workload %s has %u traces",
             name.c_str(), numTraces);
    Personality p = personality;
    p.seed = personality.seed * 1000 + trace_idx * 77 + 13;
    return synthesizeProgram(p);
}

std::unique_ptr<ExecutorTraceSource>
Workload::openTrace(unsigned trace_idx, uint64_t max_insts) const
{
    return std::make_unique<ExecutorTraceSource>(buildProgram(trace_idx),
                                                 max_insts);
}

} // namespace replay::trace
