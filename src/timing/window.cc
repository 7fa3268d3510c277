#include "timing/window.hh"

#include <algorithm>

#include "util/logging.hh"

namespace replay::timing {

using uop::Op;

FuClass
fuClassOf(uop::Op op)
{
    switch (op) {
      case Op::MUL:
      case Op::DIVQ:
      case Op::DIVR:
        return FuClass::COMPLEX;
      case Op::FADD:
      case Op::FSUB:
      case Op::FMUL:
      case Op::FDIV:
        return FuClass::FPU;
      case Op::LOAD:
      case Op::STORE:
      case Op::FLOAD:
      case Op::FSTORE:
        return FuClass::LSU;
      default:
        return FuClass::SIMPLE;
    }
}

ExecModel::ExecModel(ExecParams params, MemoryHierarchy &mem)
    : params_(params), mem_(mem),
      fuLimit_{uint8_t(params.simpleAlus), uint8_t(params.complexAlus),
               uint8_t(params.fpus), uint8_t(params.lsus)},
      slots_(RING), windowRetire_(params.windowSize, 0),
      storeMap_(STORE_MAP, {0xffffffff, 0})
{
}

UopTiming
ExecModel::exec(uint64_t fetch_cycle, uop::Op op, uint8_t mem_size,
                const uint64_t *deps, unsigned num_deps,
                uint32_t mem_addr)
{
    UopTiming t;

    // ---- dispatch -------------------------------------------------------
    uint64_t dispatch = fetch_cycle + params_.fetchToDispatch;
    if (count_ >= params_.windowSize)
        dispatch = std::max(dispatch, windowRetire_[oldest_]);
    panic_if(dispatch < lastDispatchRequest_,
             "dispatch request %llu went backwards from %llu",
             (unsigned long long)dispatch,
             (unsigned long long)lastDispatchRequest_);
    lastDispatchRequest_ = dispatch;
    t.dispatch = dispatch_.reserve(dispatch, params_.width);

    // ---- ready -----------------------------------------------------------
    uint64_t ready = t.dispatch + 1;
    for (unsigned d = 0; d < num_deps; ++d)
        ready = std::max(ready, deps[d]);

    // ---- issue: needs both an issue slot and a function unit ----------
    const unsigned cls = unsigned(fuClassOf(op));
    const unsigned limit = fuLimit_[cls];
    uint64_t cycle = ready;
    for (;; ++cycle) {
        ++probes_;
        Slot &slot = slots_[cycle & (RING - 1)];
        if (slot.cycle != cycle)
            slot = Slot{cycle};
        if (slot.issued < params_.width && slot.fu[cls] < limit) {
            ++slot.issued;
            ++slot.fu[cls];
            break;
        }
    }
    panic_if(cycle - t.dispatch >= RING,
             "issue at cycle %llu is %u+ cycles past dispatch %llu: the "
             "slot ring would alias",
             (unsigned long long)cycle, RING,
             (unsigned long long)t.dispatch);
    t.issue = cycle;

    // ---- completion -------------------------------------------------------
    unsigned latency = 1;
    switch (op) {
      case Op::MUL:
        latency = params_.mulLatency;
        break;
      case Op::DIVQ:
      case Op::DIVR:
        latency = params_.divLatency;
        break;
      case Op::FADD:
      case Op::FSUB:
      case Op::FMUL:
        latency = params_.fpLatency;
        break;
      case Op::FDIV:
        latency = params_.fpDivLatency;
        break;
      case Op::LOAD:
      case Op::FLOAD: {
        // Store-buffer bypass from the newest overlapping in-flight
        // store, else the cache hierarchy.
        uint64_t fwd = 0;
        for (uint32_t b = mem_addr & ~3u;
             b <= ((mem_addr + mem_size - 1) & ~3u); b += 4) {
            const auto &[saddr, scomplete] =
                storeMap_[(b >> 2) & (STORE_MAP - 1)];
            if (saddr == b && scomplete > t.issue)
                fwd = std::max(fwd, scomplete);
        }
        if (fwd) {
            t.complete = fwd + params_.forwardLatency;
        } else {
            const unsigned lat = mem_.access(mem_addr);
            t.l1Miss = mem_.lastMissedL1();
            t.complete = t.issue + lat +
                         (t.l1Miss ? params_.replayPenalty : 0);
        }
        break;
      }
      case Op::STORE:
      case Op::FSTORE: {
        latency = params_.storeLatency;
        t.complete = t.issue + latency;
        for (uint32_t b = mem_addr & ~3u;
             b <= ((mem_addr + mem_size - 1) & ~3u); b += 4) {
            storeMap_[(b >> 2) & (STORE_MAP - 1)] = {b, t.complete};
        }
        // Keep the line warm for subsequent loads.
        mem_.access(mem_addr);
        break;
      }
      default:
        break;
    }
    if (t.complete == 0)
        t.complete = t.issue + latency;

    // ---- in-order retirement ------------------------------------------------
    t.retire = retire_.reserve(std::max(t.complete + 1, retire_.cycle),
                               params_.width);
    windowRetire_[oldest_] = t.retire;
    if (++oldest_ == params_.windowSize)
        oldest_ = 0;
    ++count_;
    return t;
}

} // namespace replay::timing
