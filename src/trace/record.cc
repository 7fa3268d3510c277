#include "trace/record.hh"

#include "util/logging.hh"

namespace replay::trace {

TraceRecord
TraceRecord::fromStep(const x86::StepInfo &step)
{
    TraceRecord rec;
    fromStep(step, rec);
    return rec;
}

void
TraceRecord::fromStep(const x86::StepInfo &step, TraceRecord &rec)
{
    panic_if(step.regWrites.size() > MAX_REG_WRITES,
             "instruction at 0x%08x wrote %zu registers", step.pc,
             step.regWrites.size());
    panic_if(step.memOps.size() > MAX_MEM_OPS,
             "instruction at 0x%08x made %zu memory accesses", step.pc,
             step.memOps.size());
    panic_if(step.fregWrites.size() > 1,
             "instruction at 0x%08x wrote %zu FP registers", step.pc,
             step.fregWrites.size());

    rec.pc = step.pc;
    rec.nextPc = step.nextPc;
    rec.inst = step.placed->inst;
    rec.length = uint8_t(step.placed->length);
    rec.taken = step.branchTaken;
    rec.wroteFlags = step.wroteFlags;
    rec.flagsAfter = step.flagsAfter.pack();

    rec.numRegWrites = uint8_t(step.regWrites.size());
    for (unsigned i = 0; i < MAX_REG_WRITES; ++i)
        rec.regWrites[i] = i < rec.numRegWrites ? step.regWrites[i]
                                                : x86::RegWrite{};
    rec.numMemOps = uint8_t(step.memOps.size());
    for (unsigned i = 0; i < MAX_MEM_OPS; ++i)
        rec.memOps[i] = i < rec.numMemOps ? step.memOps[i] : x86::MemOp{};
    rec.numFregWrites = uint8_t(step.fregWrites.size());
    rec.fregWrite = rec.numFregWrites ? step.fregWrites[0]
                                      : x86::FRegWrite{};
}

} // namespace replay::trace
