#include "x86/program.hh"

#include <algorithm>

#include "util/logging.hh"

namespace replay::x86 {

Program::Program(std::vector<Placed> code, std::vector<DataSegment> data,
                 uint32_t entry, uint32_t stack_top)
    : code_(std::move(code)), data_(std::move(data)), entry_(entry),
      stackTop_(stack_top)
{
    if (!code_.empty()) {
        uint32_t lo = ~0u;
        uint64_t hi = 0;
        for (const Placed &p : code_) {
            lo = std::min(lo, p.addr);
            hi = std::max(hi, uint64_t(p.addr) + 1);
        }
        panic_if(hi - lo > MAX_CODE_SPAN,
                 "code span 0x%08x..0x%08llx exceeds the %u-byte cap",
                 lo, (unsigned long long)hi - 1, MAX_CODE_SPAN);
        codeLo_ = lo;
        byOffset_.assign(size_t(hi - lo), NO_INST);
    }
    for (size_t i = 0; i < code_.size(); ++i) {
        uint32_t &slot = byOffset_[code_[i].addr - codeLo_];
        panic_if(slot != NO_INST, "two instructions placed at 0x%08x",
                 code_[i].addr);
        slot = uint32_t(i);
        codeBytes_ += code_[i].length;
    }
    fatal_if(!contains(entry_), "program entry 0x%08x has no instruction",
             entry_);
}

void
Program::missing(uint32_t addr) const
{
    fatal("execution reached 0x%08x where no instruction is placed", addr);
}

} // namespace replay::x86
