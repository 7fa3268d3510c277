/**
 * @file
 * The frame cache (§2, §5.3): stores optimized frames on chip, indexed
 * by starting PC.  Capacity is counted in micro-operation slots (16k in
 * the paper's configuration, approximately a 64kB ICache) — so the
 * optimizer's micro-op reduction directly increases effective capacity
 * (§6.1).  Replacement is LRU over whole frames.
 *
 * The index is a flat open-addressing table (no node allocations on
 * the per-instruction lookup path).  LRU is tracked with a monotonic
 * touch tick per entry: ticks are unique, so the minimum tick IS the
 * least-recently-used frame — bit-identical victim selection to the
 * old intrusive list, without per-hit list surgery.  Eviction scans
 * the table, which is fine because evictions are orders of magnitude
 * rarer than lookups and the table is small (<= capacity/minUops
 * frames).
 *
 * The cache is single-owner (the sequencer thread) and takes no lock:
 * a lock on the per-instruction lookup path would be pure overhead.
 */

#ifndef REPLAY_CORE_FRAMECACHE_HH
#define REPLAY_CORE_FRAMECACHE_HH

#include <cstdint>

#include "core/frame.hh"
#include "util/flathash.hh"
#include "util/stats.hh"

namespace replay::core {

/** LRU frame store with micro-op-slot capacity accounting. */
class FrameCache
{
  public:
    explicit FrameCache(unsigned capacity_uops = 16384);

    /**
     * Insert (or replace) a frame.  Evicts least-recently-used frames
     * until the new frame fits.  Frames larger than the whole cache
     * are rejected.
     */
    void insert(FramePtr frame);

    /** Look up a frame starting at @p pc; touches LRU state. */
    FramePtr lookup(uint32_t pc);

    /** Probe without touching LRU state. */
    FramePtr probe(uint32_t pc) const;

    /** Remove the frame at @p pc (e.g. after repeated assert fires). */
    void invalidate(uint32_t pc);

    unsigned occupiedUops() const { return occupied_; }

    unsigned capacityUops() const { return capacity_; }

    size_t numFrames() const { return frames_.size(); }

    StatGroup &stats() { return stats_; }

  private:
    /** Evict the least-recently-used entry (the table is non-empty). */
    void evictLru();

    struct Entry
    {
        FramePtr frame;
        uint64_t lastUsed = 0;  ///< unique touch tick (monotonic)
    };

    unsigned capacity_;
    unsigned occupied_ = 0;
    uint64_t tick_ = 0;
    FlatMap<uint32_t, Entry> frames_;
    StatGroup stats_{"fcache"};
    Counter &hits_{stats_.counter("hits")};
    Counter &misses_{stats_.counter("misses")};
};

} // namespace replay::core

#endif // REPLAY_CORE_FRAMECACHE_HH
