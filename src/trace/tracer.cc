#include "trace/tracer.hh"

#include "util/logging.hh"

namespace replay::trace {

ExecutorTraceSource::ExecutorTraceSource(const x86::Program &program,
                                         uint64_t max_insts)
    : exec_(program), budget_(max_insts)
{
}

ExecutorTraceSource::ExecutorTraceSource(x86::Program &&program,
                                         uint64_t max_insts)
    : owned_(std::make_unique<const x86::Program>(std::move(program))),
      exec_(*owned_), budget_(max_insts)
{
}

void
ExecutorTraceSource::fill(unsigned n)
{
    while (count_ < n && budget_ > 0) {
        exec_.step(step_);
        TraceRecord::fromStep(step_, ring_[(head_ + count_) & RING_MASK]);
        ++count_;
        --budget_;
    }
}

const TraceRecord *
ExecutorTraceSource::peekSlow(unsigned ahead)
{
    panic_if(ahead >= LOOKAHEAD, "peek(%u) beyond lookahead", ahead);
    fill(ahead + 1);
    if (ahead >= count_)
        return nullptr;
    return &ring_[(head_ + ahead) & RING_MASK];
}

std::vector<TraceRecord>
collectTrace(const x86::Program &program, uint64_t max_insts)
{
    std::vector<TraceRecord> records;
    records.reserve(max_insts);
    x86::Executor exec(program);
    for (uint64_t i = 0; i < max_insts; ++i)
        records.push_back(TraceRecord::fromStep(exec.step()));
    return records;
}

} // namespace replay::trace
