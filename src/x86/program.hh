/**
 * @file
 * A complete x86-subset program: code laid out at fixed addresses plus
 * initialized data segments.  Programs are produced by the AsmBuilder
 * (directly in tests/examples) or by the workload synthesizer, and are
 * consumed by the functional Executor.
 */

#ifndef REPLAY_X86_PROGRAM_HH
#define REPLAY_X86_PROGRAM_HH

#include <cstdint>
#include <vector>

#include "x86/inst.hh"

namespace replay::x86 {

/** An initialized data region. */
struct DataSegment
{
    uint32_t base = 0;
    std::vector<uint8_t> bytes;
};

/** Immutable program image. */
class Program
{
  public:
    /** A placed instruction. */
    struct Placed
    {
        uint32_t addr = 0;
        uint32_t length = 0;    ///< modeled x86 byte length
        Inst inst;
    };

    Program(std::vector<Placed> code, std::vector<DataSegment> data,
            uint32_t entry, uint32_t stack_top);

    /** Largest span of instruction addresses a program may cover. */
    static constexpr uint32_t MAX_CODE_SPAN = 16u << 20;

    /** Fetch the instruction at @p addr; fatal if none is placed there. */
    const Placed &
    at(uint32_t addr) const
    {
        const uint32_t slot = slotOf(addr);
        if (slot == NO_INST) [[unlikely]]
            missing(addr);
        return code_[slot];
    }

    /** True if an instruction starts at @p addr. */
    bool contains(uint32_t addr) const { return slotOf(addr) != NO_INST; }

    const std::vector<Placed> &code() const { return code_; }
    const std::vector<DataSegment> &data() const { return data_; }
    uint32_t entry() const { return entry_; }
    uint32_t stackTop() const { return stackTop_; }

    /** Total modeled code bytes (footprint seen by the ICache). */
    uint32_t codeBytes() const { return codeBytes_; }

  private:
    static constexpr uint32_t NO_INST = ~0u;

    /** code_ index of the instruction starting at @p addr, or NO_INST. */
    uint32_t
    slotOf(uint32_t addr) const
    {
        const uint32_t off = addr - codeLo_;    // wraps below codeLo_
        return off < byOffset_.size() ? byOffset_[off] : NO_INST;
    }

    [[noreturn]] void missing(uint32_t addr) const;

    std::vector<Placed> code_;
    /**
     * Dense index over the code span: byOffset_[addr - codeLo_] is the
     * code_ index of the instruction starting at addr, or NO_INST.
     * The builders lay code out contiguously, so the table is four
     * bytes per code byte.
     */
    std::vector<uint32_t> byOffset_;
    uint32_t codeLo_ = 0;
    std::vector<DataSegment> data_;
    uint32_t entry_;
    uint32_t stackTop_;
    uint32_t codeBytes_ = 0;
};

} // namespace replay::x86

#endif // REPLAY_X86_PROGRAM_HH
