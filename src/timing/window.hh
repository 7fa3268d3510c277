/**
 * @file
 * The out-of-order execution core model: a dataflow-plus-resources
 * scheduler over the dynamic micro-op stream.
 *
 * Micro-ops are presented in program order with the completion times
 * of their source values; the model computes dispatch (fetch-to-
 * dispatch pipeline depth, dispatch width, 512-entry window
 * occupancy), issue (issue width and the Table 2 function unit pools:
 * 6 simple ALUs, 2 complex ALUs, 3 FPUs, 4 load/store units),
 * completion (unit latency; loads go through the memory hierarchy,
 * with an extra replay penalty on L1 misses standing in for the
 * paper's speculative wakeup/rescheduling), and in-order retirement
 * (8 wide).
 *
 * Cost per micro-op does not grow with occupancy.  Dispatch requests
 * never go backwards (fetch time is monotone and so are the retire
 * times the window waits on) and retirement is in order, so each is a
 * single (cycle, count) cursor.  Only the out-of-order issue search
 * needs per-cycle state: one 16-byte slot per cycle in a tagged ring,
 * probed from the ready cycle upward.
 */

#ifndef REPLAY_TIMING_WINDOW_HH
#define REPLAY_TIMING_WINDOW_HH

#include <cstdint>
#include <vector>

#include "timing/cache.hh"
#include "uop/uop.hh"

namespace replay::timing {

/** Function-unit classes. */
enum class FuClass : uint8_t
{
    SIMPLE,     ///< single-cycle integer / control
    COMPLEX,    ///< multiply / divide
    FPU,
    LSU,
    NUM_CLASSES,
};

/** Which unit an opcode needs. */
FuClass fuClassOf(uop::Op op);

/** Which unit a micro-op needs. */
inline FuClass fuClassOf(const uop::Uop &u) { return fuClassOf(u.op); }

/** Core parameters (Table 2). */
struct ExecParams
{
    unsigned width = 8;             ///< dispatch/issue/retire width
    unsigned windowSize = 512;
    unsigned fetchToDispatch = 13;  ///< yields >= 15-cycle BR resolve
    unsigned simpleAlus = 6;
    unsigned complexAlus = 2;
    unsigned fpus = 3;
    unsigned lsus = 4;
    unsigned mulLatency = 3;
    unsigned divLatency = 20;
    unsigned fpLatency = 4;
    unsigned fpDivLatency = 12;
    unsigned storeLatency = 1;
    unsigned forwardLatency = 1;    ///< store-buffer bypass
    unsigned replayPenalty = 2;     ///< speculative-wakeup replay
};

/** Per-uop computed schedule. */
struct UopTiming
{
    uint64_t dispatch = 0;
    uint64_t issue = 0;
    uint64_t complete = 0;
    uint64_t retire = 0;
    bool l1Miss = false;
};

/** The scheduler. */
class ExecModel
{
  public:
    ExecModel(ExecParams params, MemoryHierarchy &mem);

    /**
     * Schedule the next micro-op in program order.
     *
     * @param fetch_cycle when fetch delivered it
     * @param u           the micro-op (selects unit and latency)
     * @param deps        completion cycles of its source values
     * @param num_deps    number of entries in @p deps
     * @param mem_addr    runtime address for loads/stores
     */
    UopTiming
    exec(uint64_t fetch_cycle, const uop::Uop &u, const uint64_t *deps,
         unsigned num_deps, uint32_t mem_addr = 0)
    {
        return exec(fetch_cycle, u.op, u.memSize, deps, num_deps,
                    mem_addr);
    }

    /**
     * Field-based form for structure-of-arrays callers: scheduling
     * depends only on the opcode (unit and latency) and the access
     * width of memory micro-ops.
     */
    UopTiming exec(uint64_t fetch_cycle, uop::Op op, uint8_t mem_size,
                   const uint64_t *deps, unsigned num_deps,
                   uint32_t mem_addr = 0);

    /**
     * Earliest cycle at which fetch may deliver the next micro-op
     * without overflowing the window (given the fetch-to-dispatch
     * depth).  Fetch stalls until then — the Stall bin.
     */
    uint64_t
    fetchBackpressure() const
    {
        if (count_ < params_.windowSize)
            return 0;
        const uint64_t oldest_retire = windowRetire_[oldest_];
        const uint64_t f2d = params_.fetchToDispatch;
        return oldest_retire > f2d ? oldest_retire - f2d : 0;
    }

    uint64_t lastRetire() const { return retire_.cycle; }
    uint64_t uopsRetired() const { return count_; }

    /**
     * Issue-slot ring probes so far: the timing model's work counter
     * (a slot examined by an issue search).  Dispatch and retirement
     * are cursor updates and probe nothing.  Not part of any result.
     */
    uint64_t ringProbes() const { return probes_; }

    /**
     * Cycles past the dispatch cursor an issue may land.  The slot
     * ring has this many entries; every live slot lies in
     * (dispatch cursor, dispatch cursor + RING), so no two live cycles
     * share a slot.
     */
    static constexpr unsigned RING = 1u << 15;

  private:
    /**
     * An in-order resource: requests never go backwards, so the only
     * cycle that can still have room is the newest one used.
     */
    struct Cursor
    {
        uint64_t cycle = 0;     ///< newest cycle holding a reservation
        unsigned used = 0;      ///< reservations in that cycle

        /** First cycle >= @p from with one of @p limit slots free. */
        uint64_t
        reserve(uint64_t from, unsigned limit)
        {
            if (from > cycle) {
                cycle = from;
                used = 0;
            } else if (used == limit) {
                ++cycle;
                used = 0;
            }
            ++used;
            return cycle;
        }
    };

    /** Issue occupancy of one cycle (valid while tag == that cycle). */
    struct Slot
    {
        uint64_t cycle = ~0ULL;
        uint8_t issued = 0;
        uint8_t fu[unsigned(FuClass::NUM_CLASSES)] = {};
    };
    static_assert(sizeof(Slot) == 16, "one slot per 16 bytes");

    ExecParams params_;
    MemoryHierarchy &mem_;
    uint8_t fuLimit_[unsigned(FuClass::NUM_CLASSES)];

    Cursor dispatch_;
    Cursor retire_;
    uint64_t lastDispatchRequest_ = 0;
    std::vector<Slot> slots_;
    uint64_t probes_ = 0;

    /** Retire times of the last windowSize micro-ops. */
    std::vector<uint64_t> windowRetire_;
    unsigned oldest_ = 0;       ///< windowRetire_ index of count_ - W
    uint64_t count_ = 0;

    /** Latest in-flight store completion per word address. */
    std::vector<std::pair<uint32_t, uint64_t>> storeMap_;
    static constexpr size_t STORE_MAP = 1u << 12;
};

} // namespace replay::timing

#endif // REPLAY_TIMING_WINDOW_HH
