/**
 * @file
 * Functional execution of the x86 subset.
 *
 * The Executor owns the architectural machine state (GPRs, flags, flat
 * FP registers, sparse byte-addressed memory) and steps one instruction
 * at a time, reporting everything the paper's hardware trace records
 * carry: register state changes, memory transactions, and the resolved
 * next PC.  The workload tracer (src/trace) runs programs through an
 * Executor to synthesize trace files; the simulator and the state
 * verifier reuse SparseMemory for their memory images.
 */

#ifndef REPLAY_X86_EXECUTOR_HH
#define REPLAY_X86_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/flathash.hh"
#include "util/smallvec.hh"
#include "x86/inst.hh"
#include "x86/program.hh"

namespace replay::x86 {

/** Sparse paged little-endian memory. Unwritten bytes read as zero. */
class SparseMemory
{
  public:
    uint32_t read(uint32_t addr, unsigned size) const;
    void write(uint32_t addr, unsigned size, uint32_t value);

    /** Load an initialized data segment. */
    void loadSegment(const DataSegment &seg);

    /** Number of resident pages (for tests / stats). */
    size_t pageCount() const { return pages_.size(); }

  private:
    static constexpr uint32_t PAGE_BITS = 12;
    static constexpr uint32_t PAGE_SIZE = 1u << PAGE_BITS;
    static constexpr uint32_t NO_PAGE = 0xffffffffu;

    using Page = std::array<uint8_t, PAGE_SIZE>;

    uint8_t peek(uint32_t addr) const;
    void poke(uint32_t addr, uint8_t value);

    /** Resident page for @p page_idx, or null (read path). */
    const Page *findPage(uint32_t page_idx) const;

    /** Resident page for @p page_idx, allocating it (write path). */
    Page *touchPage(uint32_t page_idx);

    FlatMap<uint32_t, std::unique_ptr<Page>> pages_;

    // One-entry page translation cache: accesses are strongly
    // page-local, so the map probe is skipped almost always.
    mutable uint32_t cachedIdx_ = NO_PAGE;
    mutable Page *cachedPage_ = nullptr;
};

/** One architectural memory transaction performed by an instruction. */
struct MemOp
{
    bool isStore = false;
    uint32_t addr = 0;
    uint8_t size = 4;
    uint32_t data = 0;      ///< value loaded or stored

    bool
    overlaps(const MemOp &other) const
    {
        return addr < other.addr + other.size &&
               other.addr < addr + size;
    }
};

/** One architectural register write performed by an instruction. */
struct RegWrite
{
    Reg reg = Reg::NONE;
    uint32_t value = 0;
};

struct FRegWrite
{
    FReg reg = FReg::NONE;
    float value = 0.0f;
};

/** Everything observable about one executed instruction. */
struct StepInfo
{
    uint32_t pc = 0;
    uint32_t nextPc = 0;
    const Program::Placed *placed = nullptr;
    bool branchTaken = false;       ///< for any control transfer
    bool wroteFlags = false;
    Flags flagsAfter;
    // Inline side-effect lists: the subset's widest flows write two
    // registers and touch two memory locations, so these never spill.
    SmallVec<RegWrite, 4> regWrites;
    SmallVec<FRegWrite, 2> fregWrites;
    SmallVec<MemOp, 4> memOps;
};

/** Architectural state + single-step interpreter. */
class Executor
{
  public:
    explicit Executor(const Program &program);

    /** Execute the instruction at the current PC. */
    StepInfo
    step()
    {
        StepInfo info;
        step(info);
        return info;
    }

    /** As step(), overwriting a caller-owned @p info (no set-up cost). */
    void step(StepInfo &info);

    /** Execute until @p count instructions have retired. */
    void run(uint64_t count);

    uint32_t pc() const { return pc_; }
    void setPc(uint32_t pc) { pc_ = pc; }

    uint32_t reg(Reg r) const { return regs_[unsigned(r)]; }
    void setReg(Reg r, uint32_t v) { regs_[unsigned(r)] = v; }

    float freg(FReg r) const { return fregs_[unsigned(r)]; }
    void setFreg(FReg r, float v) { fregs_[unsigned(r)] = v; }

    const Flags &flags() const { return flags_; }
    void setFlags(const Flags &f) { flags_ = f; }

    SparseMemory &memory() { return mem_; }
    const SparseMemory &memory() const { return mem_; }

    uint64_t instCount() const { return instCount_; }

  private:
    /** Compute the effective address of a memory operand. */
    uint32_t effAddr(const MemRef &m) const;

    uint32_t load(StepInfo &info, uint32_t addr, unsigned size);
    void store(StepInfo &info, uint32_t addr, unsigned size,
               uint32_t value);
    void writeReg(StepInfo &info, Reg reg, uint32_t value);
    void writeFreg(StepInfo &info, FReg reg, float value);
    void setArithFlags(StepInfo &info, uint32_t result, bool cf, bool of);
    void setLogicFlags(StepInfo &info, uint32_t result);

    const Program &program_;
    uint32_t pc_;
    std::array<uint32_t, NUM_GPRS> regs_{};
    std::array<float, NUM_FREGS> fregs_{};
    Flags flags_;
    SparseMemory mem_;
    uint64_t instCount_ = 0;
};

} // namespace replay::x86

#endif // REPLAY_X86_EXECUTOR_HH
