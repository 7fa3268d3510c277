#include "x86/executor.hh"

#include <cstring>

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace replay::x86 {

// ---------------------------------------------------------------------
// SparseMemory
// ---------------------------------------------------------------------

const SparseMemory::Page *
SparseMemory::findPage(uint32_t page_idx) const
{
    if (page_idx == cachedIdx_)
        return cachedPage_;
    const auto *slot = pages_.find(page_idx);
    Page *page = slot ? slot->get() : nullptr;
    if (page) {
        cachedIdx_ = page_idx;
        cachedPage_ = page;
    }
    return page;
}

SparseMemory::Page *
SparseMemory::touchPage(uint32_t page_idx)
{
    if (page_idx == cachedIdx_)
        return cachedPage_;
    auto &slot = pages_[page_idx];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
        // The insert may have rehashed the table; every cached Page
        // pointer stays valid (pages are stable heap objects), but the
        // cache itself must be refreshed from the new slot.
    }
    cachedIdx_ = page_idx;
    cachedPage_ = slot.get();
    return cachedPage_;
}

uint8_t
SparseMemory::peek(uint32_t addr) const
{
    const Page *page = findPage(addr >> PAGE_BITS);
    return page ? (*page)[addr & (PAGE_SIZE - 1)] : 0;
}

void
SparseMemory::poke(uint32_t addr, uint8_t value)
{
    (*touchPage(addr >> PAGE_BITS))[addr & (PAGE_SIZE - 1)] = value;
}

uint32_t
SparseMemory::read(uint32_t addr, unsigned size) const
{
    panic_if(size != 1 && size != 2 && size != 4,
             "illegal memory access size %u", size);
    const uint32_t off = addr & (PAGE_SIZE - 1);
    if (off + size <= PAGE_SIZE) {
        const Page *page = findPage(addr >> PAGE_BITS);
        if (!page)
            return 0;
        uint32_t value = 0;
        for (unsigned i = 0; i < size; ++i)
            value |= uint32_t((*page)[off + i]) << (8 * i);
        return value;
    }
    uint32_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= uint32_t(peek(addr + i)) << (8 * i);
    return value;
}

void
SparseMemory::write(uint32_t addr, unsigned size, uint32_t value)
{
    panic_if(size != 1 && size != 2 && size != 4,
             "illegal memory access size %u", size);
    const uint32_t off = addr & (PAGE_SIZE - 1);
    if (off + size <= PAGE_SIZE) {
        Page *page = touchPage(addr >> PAGE_BITS);
        for (unsigned i = 0; i < size; ++i)
            (*page)[off + i] = uint8_t(value >> (8 * i));
        return;
    }
    for (unsigned i = 0; i < size; ++i)
        poke(addr + i, uint8_t(value >> (8 * i)));
}

void
SparseMemory::loadSegment(const DataSegment &seg)
{
    for (size_t i = 0; i < seg.bytes.size(); ++i)
        poke(seg.base + uint32_t(i), seg.bytes[i]);
}

// ---------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------

Executor::Executor(const Program &program)
    : program_(program), pc_(program.entry())
{
    for (const auto &seg : program.data())
        mem_.loadSegment(seg);
    regs_[unsigned(Reg::ESP)] = program.stackTop();
    regs_[unsigned(Reg::EBP)] = program.stackTop();
}

uint32_t
Executor::effAddr(const MemRef &m) const
{
    uint32_t addr = uint32_t(m.disp);
    if (m.base != Reg::NONE)
        addr += regs_[unsigned(m.base)];
    if (m.index != Reg::NONE)
        addr += regs_[unsigned(m.index)] * m.scale;
    return addr;
}

uint32_t
Executor::load(StepInfo &info, uint32_t addr, unsigned size)
{
    const uint32_t value = mem_.read(addr, size);
    info.memOps.push_back({false, addr, uint8_t(size), value});
    return value;
}

void
Executor::store(StepInfo &info, uint32_t addr, unsigned size,
                uint32_t value)
{
    // Canonicalize sub-word store data so trace records (and the
    // verifier maps derived from them) never carry stale high bytes.
    if (size < 4)
        value &= (1u << (8 * size)) - 1;
    mem_.write(addr, size, value);
    info.memOps.push_back({true, addr, uint8_t(size), value});
}

void
Executor::writeReg(StepInfo &info, Reg reg, uint32_t value)
{
    regs_[unsigned(reg)] = value;
    info.regWrites.push_back({reg, value});
}

void
Executor::writeFreg(StepInfo &info, FReg reg, float value)
{
    fregs_[unsigned(reg)] = value;
    info.fregWrites.push_back({reg, value});
}

void
Executor::setArithFlags(StepInfo &info, uint32_t result, bool cf, bool of)
{
    flags_.cf = cf;
    flags_.of = of;
    flags_.zf = result == 0;
    flags_.sf = (result >> 31) & 1;
    flags_.pf = parity(result & 0xff) == 0;
    info.wroteFlags = true;
}

void
Executor::setLogicFlags(StepInfo &info, uint32_t result)
{
    setArithFlags(info, result, false, false);
}

namespace {

bool
addOverflows(uint32_t a, uint32_t b, uint32_t r)
{
    return (~(a ^ b) & (a ^ r)) >> 31;
}

bool
subOverflows(uint32_t a, uint32_t b, uint32_t r)
{
    return ((a ^ b) & (a ^ r)) >> 31;
}

} // anonymous namespace

void
Executor::step(StepInfo &info)
{
    const Program::Placed &placed = program_.at(pc_);
    const Inst &in = placed.inst;

    info.pc = pc_;
    info.placed = &placed;
    info.branchTaken = false;
    info.wroteFlags = false;
    info.regWrites.clear();
    info.fregWrites.clear();
    info.memOps.clear();
    uint32_t next = pc_ + placed.length;

    auto srcValue = [&]() -> uint32_t {
        // Generic second operand for two-address ALU shapes.
        switch (in.form) {
          case Form::RR:
          case Form::RRI:
            return regs_[unsigned(in.reg2)];
          case Form::RI:
            return uint32_t(in.imm);
          case Form::RM:
            return load(info, effAddr(in.mem), in.opSize);
          default:
            panic("srcValue on form %d of %s", int(in.form),
                  mnemName(in.mnem));
        }
    };

    switch (in.mnem) {
      case Mnem::NOP:
        break;

      case Mnem::MOV:
        switch (in.form) {
          case Form::RR:
            writeReg(info, in.reg1, regs_[unsigned(in.reg2)]);
            break;
          case Form::RI:
            writeReg(info, in.reg1, uint32_t(in.imm));
            break;
          case Form::RM:
            writeReg(info, in.reg1, load(info, effAddr(in.mem), 4));
            break;
          case Form::MR:
            store(info, effAddr(in.mem), in.opSize,
                  regs_[unsigned(in.reg2)]);
            break;
          case Form::MI:
            store(info, effAddr(in.mem), in.opSize, uint32_t(in.imm));
            break;
          default:
            panic("MOV with form %d", int(in.form));
        }
        break;

      case Mnem::MOVZX: {
        const uint32_t v = load(info, effAddr(in.mem), in.opSize);
        writeReg(info, in.reg1, v);
        break;
      }

      case Mnem::MOVSX: {
        const uint32_t v = load(info, effAddr(in.mem), in.opSize);
        writeReg(info, in.reg1,
                 uint32_t(sext(v, in.opSize * 8)));
        break;
      }

      case Mnem::LEA:
        writeReg(info, in.reg1, effAddr(in.mem));
        break;

      case Mnem::PUSH: {
        uint32_t value;
        if (in.form == Form::R)
            value = regs_[unsigned(in.reg2)];
        else if (in.form == Form::I)
            value = uint32_t(in.imm);
        else
            value = load(info, effAddr(in.mem), 4);
        const uint32_t sp = regs_[unsigned(Reg::ESP)] - 4;
        store(info, sp, 4, value);
        writeReg(info, Reg::ESP, sp);
        break;
      }

      case Mnem::POP: {
        const uint32_t sp = regs_[unsigned(Reg::ESP)];
        const uint32_t value = load(info, sp, 4);
        writeReg(info, Reg::ESP, sp + 4);
        writeReg(info, in.reg1, value);
        break;
      }

      case Mnem::ADD: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t b = srcValue();
        const uint32_t r = a + b;
        writeReg(info, in.reg1, r);
        setArithFlags(info, r, r < a, addOverflows(a, b, r));
        break;
      }

      case Mnem::SUB: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t b = srcValue();
        const uint32_t r = a - b;
        writeReg(info, in.reg1, r);
        setArithFlags(info, r, a < b, subOverflows(a, b, r));
        break;
      }

      case Mnem::CMP: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t b = srcValue();
        const uint32_t r = a - b;
        setArithFlags(info, r, a < b, subOverflows(a, b, r));
        break;
      }

      case Mnem::AND:
      case Mnem::OR:
      case Mnem::XOR: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t b = srcValue();
        uint32_t r = 0;
        if (in.mnem == Mnem::AND)
            r = a & b;
        else if (in.mnem == Mnem::OR)
            r = a | b;
        else
            r = a ^ b;
        writeReg(info, in.reg1, r);
        setLogicFlags(info, r);
        break;
      }

      case Mnem::TEST: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t b = srcValue();
        setLogicFlags(info, a & b);
        break;
      }

      case Mnem::INC: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t r = a + 1;
        writeReg(info, in.reg1, r);
        // INC preserves CF.
        const bool cf = flags_.cf;
        setArithFlags(info, r, cf, addOverflows(a, 1, r));
        break;
      }

      case Mnem::DEC: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t r = a - 1;
        writeReg(info, in.reg1, r);
        const bool cf = flags_.cf;
        setArithFlags(info, r, cf, subOverflows(a, 1, r));
        break;
      }

      case Mnem::NEG: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const uint32_t r = 0 - a;
        writeReg(info, in.reg1, r);
        setArithFlags(info, r, a != 0, subOverflows(0, a, r));
        break;
      }

      case Mnem::NOT:
        // NOT does not affect flags.
        writeReg(info, in.reg1, ~regs_[unsigned(in.reg1)]);
        break;

      case Mnem::IMUL: {
        const int64_t a = int32_t(regs_[unsigned(in.reg1)]);
        int64_t b;
        if (in.form == Form::RRI)
            b = in.imm;
        else
            b = int32_t(srcValue());
        const int64_t wide = (in.form == Form::RRI)
            ? int64_t(int32_t(regs_[unsigned(in.reg2)])) * b
            : a * b;
        const uint32_t r = uint32_t(wide);
        writeReg(info, in.reg1, r);
        const bool ovf = wide != int64_t(int32_t(r));
        setArithFlags(info, r, ovf, ovf);
        break;
      }

      case Mnem::DIV: {
        const uint64_t dividend =
            (uint64_t(regs_[unsigned(Reg::EDX)]) << 32) |
            regs_[unsigned(Reg::EAX)];
        const uint32_t divisor = in.form == Form::R
            ? regs_[unsigned(in.reg2)]
            : load(info, effAddr(in.mem), 4);
        fatal_if(divisor == 0, "DIV by zero at 0x%08x", pc_);
        const uint64_t q = dividend / divisor;
        fatal_if(q > 0xffffffffULL, "DIV quotient overflow at 0x%08x",
                 pc_);
        writeReg(info, Reg::EAX, uint32_t(q));
        writeReg(info, Reg::EDX, uint32_t(dividend % divisor));
        // Real DIV leaves flags undefined; we model them unchanged.
        break;
      }

      case Mnem::SHL: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const unsigned count = unsigned(in.imm) & 31;
        if (count) {
            const uint32_t r = a << count;
            writeReg(info, in.reg1, r);
            const bool cf = (a >> (32 - count)) & 1;
            setArithFlags(info, r, cf, ((r >> 31) & 1) != cf);
        }
        break;
      }

      case Mnem::SHR: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const unsigned count = unsigned(in.imm) & 31;
        if (count) {
            const uint32_t r = a >> count;
            writeReg(info, in.reg1, r);
            const bool cf = (a >> (count - 1)) & 1;
            setArithFlags(info, r, cf, (a >> 31) & 1);
        }
        break;
      }

      case Mnem::SAR: {
        const uint32_t a = regs_[unsigned(in.reg1)];
        const unsigned count = unsigned(in.imm) & 31;
        if (count) {
            const uint32_t r = uint32_t(int32_t(a) >> count);
            writeReg(info, in.reg1, r);
            const bool cf = (a >> (count - 1)) & 1;
            setArithFlags(info, r, cf, false);
        }
        break;
      }

      case Mnem::CDQ:
        writeReg(info, Reg::EDX,
                 (regs_[unsigned(Reg::EAX)] >> 31) ? 0xffffffffU : 0);
        break;

      case Mnem::SETCC: {
        const uint32_t old = regs_[unsigned(in.reg1)];
        const uint32_t bit = condTaken(in.cc, flags_) ? 1 : 0;
        writeReg(info, in.reg1, (old & ~0xffU) | bit);
        break;
      }

      case Mnem::JMP:
        info.branchTaken = true;
        if (in.form == Form::REL)
            next = in.target;
        else if (in.form == Form::R)
            next = regs_[unsigned(in.reg2)];
        else
            next = load(info, effAddr(in.mem), 4);
        break;

      case Mnem::JCC:
        info.branchTaken = condTaken(in.cc, flags_);
        if (info.branchTaken)
            next = in.target;
        break;

      case Mnem::CALL: {
        info.branchTaken = true;
        const uint32_t retAddr = next;
        const uint32_t sp = regs_[unsigned(Reg::ESP)] - 4;
        store(info, sp, 4, retAddr);
        writeReg(info, Reg::ESP, sp);
        next = in.form == Form::REL ? in.target
                                    : regs_[unsigned(in.reg2)];
        break;
      }

      case Mnem::RET: {
        info.branchTaken = true;
        const uint32_t sp = regs_[unsigned(Reg::ESP)];
        next = load(info, sp, 4);
        writeReg(info, Reg::ESP, sp + 4);
        break;
      }

      case Mnem::FLD: {
        const uint32_t raw = load(info, effAddr(in.mem), 4);
        float v;
        std::memcpy(&v, &raw, 4);
        writeFreg(info, in.freg1, v);
        break;
      }

      case Mnem::FST: {
        const float v = fregs_[unsigned(in.freg1)];
        uint32_t raw;
        std::memcpy(&raw, &v, 4);
        store(info, effAddr(in.mem), 4, raw);
        break;
      }

      case Mnem::FADD:
      case Mnem::FSUB:
      case Mnem::FMUL:
      case Mnem::FDIV: {
        const float a = fregs_[unsigned(in.freg1)];
        const float b = fregs_[unsigned(in.freg2)];
        float r = 0;
        switch (in.mnem) {
          case Mnem::FADD: r = a + b; break;
          case Mnem::FSUB: r = a - b; break;
          case Mnem::FMUL: r = a * b; break;
          default:         r = b != 0.0f ? a / b : 0.0f; break;
        }
        writeFreg(info, in.freg1, r);
        break;
      }

      case Mnem::LONGFLOW:
        // Architecturally a no-op; the timing model flushes on it.
        break;

      default:
        panic("unimplemented mnemonic %s", mnemName(in.mnem));
    }

    info.nextPc = next;
    info.flagsAfter = flags_;
    pc_ = next;
    ++instCount_;
}

void
Executor::run(uint64_t count)
{
    StepInfo info;
    for (uint64_t i = 0; i < count; ++i)
        step(info);
}

} // namespace replay::x86
