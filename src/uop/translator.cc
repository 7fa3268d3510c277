#include "uop/translator.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace replay::uop {

using x86::Form;
using x86::Inst;
using x86::Mnem;
using x86::Reg;

namespace {

/** Incremental flow builder that stamps provenance onto each micro-op. */
class Flow
{
  public:
    Flow(uint32_t pc, std::vector<Uop> &out)
        : pc_(pc), out_(out), start_(out.size())
    {
    }

    ~Flow()
    {
        panic_if(out_.size() == start_, "empty decode flow at 0x%08x",
                 pc_);
        out_.back().lastOfInst = true;
    }

    Uop &
    add(Op op)
    {
        Uop u;
        u.op = op;
        u.x86Pc = pc_;
        u.microIdx = uint8_t(out_.size() - start_);
        if (op == Op::LOAD || op == Op::STORE || op == Op::FLOAD ||
            op == Op::FSTORE) {
            u.memSeq = memSeq_++;
        }
        out_.push_back(u);
        return out_.back();
    }

    /** dst <- imm */
    Uop &
    limm(UReg dst, int32_t imm)
    {
        Uop &u = add(Op::LIMM);
        u.dst = dst;
        u.imm = imm;
        return u;
    }

    /** Three-operand ALU, register second operand. */
    Uop &
    aluRR(Op op, UReg dst, UReg a, UReg b, bool flags = true)
    {
        Uop &u = add(op);
        u.dst = dst;
        u.srcA = a;
        u.srcB = b;
        u.writesFlags = flags;
        return u;
    }

    /** Three-operand ALU, immediate second operand. */
    Uop &
    aluRI(Op op, UReg dst, UReg a, int32_t imm, bool flags = true)
    {
        Uop &u = add(op);
        u.dst = dst;
        u.srcA = a;
        u.imm = imm;
        u.writesFlags = flags;
        return u;
    }

    /** dst <- mem[base + index*scale + disp] */
    Uop &
    loadMem(UReg dst, const x86::MemRef &m, uint8_t size = 4,
            bool sext_load = false)
    {
        Uop &u = add(Op::LOAD);
        u.dst = dst;
        u.srcA = m.base == Reg::NONE ? UReg::NONE : gpr(m.base);
        u.srcB = m.index == Reg::NONE ? UReg::NONE : gpr(m.index);
        u.scale = m.scale;
        u.imm = m.disp;
        u.memSize = size;
        u.signExtend = sext_load;
        return u;
    }

    /** mem[base + index*scale + disp] <- value */
    Uop &
    storeMem(const x86::MemRef &m, UReg value, uint8_t size = 4)
    {
        Uop &u = add(Op::STORE);
        u.srcA = m.base == Reg::NONE ? UReg::NONE : gpr(m.base);
        u.srcC = m.index == Reg::NONE ? UReg::NONE : gpr(m.index);
        u.scale = m.scale;
        u.imm = m.disp;
        u.srcB = value;
        u.memSize = size;
        return u;
    }

    /** mem[base + disp] <- value with explicit base/disp. */
    Uop &
    storeBD(UReg base, int32_t disp, UReg value)
    {
        Uop &u = add(Op::STORE);
        u.srcA = base;
        u.imm = disp;
        u.srcB = value;
        return u;
    }

  private:
    uint32_t pc_;
    std::vector<Uop> &out_;
    size_t start_;
    uint8_t memSeq_ = 0;
};

Op
aluOpFor(Mnem mnem)
{
    switch (mnem) {
      case Mnem::ADD:  return Op::ADD;
      case Mnem::SUB:  return Op::SUB;
      case Mnem::AND:  return Op::AND;
      case Mnem::OR:   return Op::OR;
      case Mnem::XOR:  return Op::XOR;
      case Mnem::CMP:  return Op::CMP;
      case Mnem::TEST: return Op::TEST;
      case Mnem::IMUL: return Op::MUL;
      case Mnem::SHL:  return Op::SHL;
      case Mnem::SHR:  return Op::SHR;
      case Mnem::SAR:  return Op::SAR;
      default:
        panic("no ALU micro-op for %s", x86::mnemName(mnem));
    }
}

Op
fpOpFor(Mnem mnem)
{
    switch (mnem) {
      case Mnem::FADD: return Op::FADD;
      case Mnem::FSUB: return Op::FSUB;
      case Mnem::FMUL: return Op::FMUL;
      case Mnem::FDIV: return Op::FDIV;
      default:
        panic("no FP micro-op for %s", x86::mnemName(mnem));
    }
}

} // anonymous namespace

unsigned
Translator::translate(const Inst &in, uint32_t pc, uint32_t next_pc,
                      std::vector<Uop> &out) const
{
    ++translations_;
    const size_t before = out.size();
    Flow f(pc, out);

    switch (in.mnem) {
      case Mnem::NOP:
        f.add(Op::NOP);
        break;

      case Mnem::MOV:
        switch (in.form) {
          case Form::RR: {
            Uop &u = f.add(Op::MOV);
            u.dst = gpr(in.reg1);
            u.srcA = gpr(in.reg2);
            break;
          }
          case Form::RI:
            f.limm(gpr(in.reg1), int32_t(in.imm));
            break;
          case Form::RM:
            f.loadMem(gpr(in.reg1), in.mem);
            break;
          case Form::MR:
            f.storeMem(in.mem, gpr(in.reg2), in.opSize);
            break;
          case Form::MI:
            f.limm(UReg::ET7, int32_t(in.imm));
            f.storeMem(in.mem, UReg::ET7, in.opSize);
            break;
          default:
            panic("MOV form %d", int(in.form));
        }
        break;

      case Mnem::MOVZX:
        f.loadMem(gpr(in.reg1), in.mem, in.opSize, false);
        break;

      case Mnem::MOVSX:
        f.loadMem(gpr(in.reg1), in.mem, in.opSize, true);
        break;

      case Mnem::LEA: {
        // Address arithmetic without memory access; decomposed into
        // plain ALU micro-ops (none of which set flags).
        const UReg dst = gpr(in.reg1);
        const bool has_base = in.mem.base != Reg::NONE;
        const bool has_index = in.mem.index != Reg::NONE;
        if (!has_index) {
            if (has_base)
                f.aluRI(Op::ADD, dst, gpr(in.mem.base), in.mem.disp,
                        false);
            else
                f.limm(dst, in.mem.disp);
            break;
        }
        UReg idx = gpr(in.mem.index);
        if (in.mem.scale != 1) {
            f.aluRI(Op::SHL, UReg::ET6, idx,
                    int32_t(floorLog2(in.mem.scale)), false);
            idx = UReg::ET6;
        }
        if (has_base) {
            if (in.mem.disp == 0) {
                f.aluRR(Op::ADD, dst, gpr(in.mem.base), idx, false);
            } else {
                f.aluRR(Op::ADD, UReg::ET6, gpr(in.mem.base), idx,
                        false);
                f.aluRI(Op::ADD, dst, UReg::ET6, in.mem.disp, false);
            }
        } else {
            f.aluRI(Op::ADD, dst, idx, in.mem.disp, false);
        }
        break;
      }

      case Mnem::PUSH: {
        UReg value;
        if (in.form == Form::R) {
            value = gpr(in.reg2);
        } else if (in.form == Form::I) {
            f.limm(UReg::ET7, int32_t(in.imm));
            value = UReg::ET7;
        } else {
            f.loadMem(UReg::ET7, in.mem);
            value = UReg::ET7;
        }
        f.storeBD(UReg::ESP, -4, value);
        f.aluRI(Op::SUB, UReg::ESP, UReg::ESP, 4, false);
        break;
      }

      case Mnem::POP: {
        panic_if(in.reg1 == Reg::ESP, "POP ESP is not modeled");
        f.aluRI(Op::ADD, UReg::ESP, UReg::ESP, 4, false);
        Uop &u = f.add(Op::LOAD);
        u.dst = gpr(in.reg1);
        u.srcA = UReg::ESP;
        u.imm = -4;
        break;
      }

      case Mnem::ADD:
      case Mnem::SUB:
      case Mnem::AND:
      case Mnem::OR:
      case Mnem::XOR: {
        const Op op = aluOpFor(in.mnem);
        const UReg dst = gpr(in.reg1);
        switch (in.form) {
          case Form::RR:
            f.aluRR(op, dst, dst, gpr(in.reg2));
            break;
          case Form::RI:
            f.aluRI(op, dst, dst, int32_t(in.imm));
            break;
          case Form::RM:
            f.loadMem(UReg::ET7, in.mem);
            f.aluRR(op, dst, dst, UReg::ET7);
            break;
          default:
            panic("%s form %d", x86::mnemName(in.mnem), int(in.form));
        }
        break;
      }

      case Mnem::CMP:
      case Mnem::TEST: {
        const Op op = aluOpFor(in.mnem);
        const UReg a = gpr(in.reg1);
        switch (in.form) {
          case Form::RR: {
            Uop &u = f.aluRR(op, UReg::NONE, a, gpr(in.reg2));
            u.dst = UReg::NONE;
            break;
          }
          case Form::RI:
            f.aluRI(op, UReg::NONE, a, int32_t(in.imm));
            break;
          case Form::RM:
            f.loadMem(UReg::ET7, in.mem);
            f.aluRR(op, UReg::NONE, a, UReg::ET7);
            break;
          default:
            panic("%s form %d", x86::mnemName(in.mnem), int(in.form));
        }
        break;
      }

      case Mnem::INC:
      case Mnem::DEC: {
        const Op op = in.mnem == Mnem::INC ? Op::ADD : Op::SUB;
        Uop &u = f.aluRI(op, gpr(in.reg1), gpr(in.reg1), 1);
        u.flagsCarryOnly = true;    // CF is preserved from prior flags
        u.readsFlags = true;
        break;
      }

      case Mnem::NEG: {
        Uop &u = f.add(Op::NEG);
        u.dst = gpr(in.reg1);
        u.srcA = gpr(in.reg1);
        u.writesFlags = true;
        break;
      }

      case Mnem::NOT: {
        Uop &u = f.add(Op::NOT);
        u.dst = gpr(in.reg1);
        u.srcA = gpr(in.reg1);
        break;
      }

      case Mnem::IMUL:
        switch (in.form) {
          case Form::RR:
            f.aluRR(Op::MUL, gpr(in.reg1), gpr(in.reg1), gpr(in.reg2));
            break;
          case Form::RRI:
            f.aluRI(Op::MUL, gpr(in.reg1), gpr(in.reg2),
                    int32_t(in.imm));
            break;
          case Form::RM:
            f.loadMem(UReg::ET7, in.mem);
            f.aluRR(Op::MUL, gpr(in.reg1), gpr(in.reg1), UReg::ET7);
            break;
          default:
            panic("IMUL form %d", int(in.form));
        }
        break;

      case Mnem::DIV: {
        // x86 DIV binds EDX:EAX as dividend -- the fixed-register
        // semantics the paper cites as a compiler constraint.
        UReg divisor;
        if (in.form == Form::R) {
            divisor = gpr(in.reg2);
        } else {
            f.loadMem(UReg::ET6, in.mem);
            divisor = UReg::ET6;
        }
        Uop &q = f.add(Op::DIVQ);
        q.dst = UReg::ET7;
        q.srcA = UReg::EAX;
        q.srcB = divisor;
        q.srcC = UReg::EDX;
        Uop &r = f.add(Op::DIVR);
        r.dst = UReg::EDX;
        r.srcA = UReg::EAX;
        r.srcB = divisor;
        r.srcC = UReg::EDX;
        Uop &m = f.add(Op::MOV);
        m.dst = UReg::EAX;
        m.srcA = UReg::ET7;
        break;
      }

      case Mnem::SHL:
      case Mnem::SHR:
      case Mnem::SAR: {
        const unsigned count = unsigned(in.imm) & 31;
        if (count == 0) {
            f.add(Op::NOP);     // shift by zero: no state change
            break;
        }
        f.aluRI(aluOpFor(in.mnem), gpr(in.reg1), gpr(in.reg1),
                int32_t(count));
        break;
      }

      case Mnem::CDQ:
        f.aluRI(Op::SAR, UReg::EDX, UReg::EAX, 31, false);
        break;

      case Mnem::SETCC: {
        Uop &u = f.add(Op::SETCC);
        u.dst = gpr(in.reg1);
        u.srcA = gpr(in.reg1);
        u.cc = in.cc;
        u.readsFlags = true;
        break;
      }

      case Mnem::JMP:
        switch (in.form) {
          case Form::REL: {
            Uop &u = f.add(Op::JMP);
            u.target = in.target;
            break;
          }
          case Form::R: {
            Uop &u = f.add(Op::JMPI);
            u.srcA = gpr(in.reg2);
            break;
          }
          case Form::M: {
            f.loadMem(UReg::ET7, in.mem);
            Uop &u = f.add(Op::JMPI);
            u.srcA = UReg::ET7;
            break;
          }
          default:
            panic("JMP form %d", int(in.form));
        }
        break;

      case Mnem::JCC: {
        Uop &u = f.add(Op::BR);
        u.cc = in.cc;
        u.readsFlags = true;
        u.target = in.target;
        break;
      }

      case Mnem::CALL: {
        f.limm(UReg::ET7, int32_t(next_pc));
        f.storeBD(UReg::ESP, -4, UReg::ET7);
        f.aluRI(Op::SUB, UReg::ESP, UReg::ESP, 4, false);
        if (in.form == Form::REL) {
            Uop &u = f.add(Op::JMP);
            u.target = in.target;
        } else {
            Uop &u = f.add(Op::JMPI);
            u.srcA = gpr(in.reg2);
        }
        break;
      }

      case Mnem::RET: {
        // Matches the paper's flow: ET <- SS:[ESP]; ESP += 4; jmp (ET).
        Uop &ld = f.add(Op::LOAD);
        ld.dst = UReg::ET7;
        ld.srcA = UReg::ESP;
        f.aluRI(Op::ADD, UReg::ESP, UReg::ESP, 4, false);
        Uop &u = f.add(Op::JMPI);
        u.srcA = UReg::ET7;
        break;
      }

      case Mnem::FLD: {
        Uop &u = f.add(Op::FLOAD);
        u.dst = fpr(in.freg1);
        u.srcA = in.mem.base == Reg::NONE ? UReg::NONE : gpr(in.mem.base);
        u.srcB = in.mem.index == Reg::NONE ? UReg::NONE
                                           : gpr(in.mem.index);
        u.scale = in.mem.scale;
        u.imm = in.mem.disp;
        break;
      }

      case Mnem::FST: {
        Uop &u = f.add(Op::FSTORE);
        u.srcA = in.mem.base == Reg::NONE ? UReg::NONE : gpr(in.mem.base);
        u.srcC = in.mem.index == Reg::NONE ? UReg::NONE
                                           : gpr(in.mem.index);
        u.scale = in.mem.scale;
        u.imm = in.mem.disp;
        u.srcB = fpr(in.freg1);
        break;
      }

      case Mnem::FADD:
      case Mnem::FSUB:
      case Mnem::FMUL:
      case Mnem::FDIV: {
        Uop &u = f.add(fpOpFor(in.mnem));
        u.dst = fpr(in.freg1);
        u.srcA = fpr(in.freg1);
        u.srcB = fpr(in.freg2);
        break;
      }

      case Mnem::LONGFLOW:
        f.add(Op::LONGFLOW);
        break;

      default:
        panic("unimplemented mnemonic %s", x86::mnemName(in.mnem));
    }

    return unsigned(out.size() - before);
}

} // namespace replay::uop
