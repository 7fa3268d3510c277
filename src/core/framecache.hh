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
 * Resource governance: when a ResourceGovernor is attached the cache
 * reports its live footprint (frame bodies + index) on every
 * occupancy change, and exposes shedLru()/shedToUops() so the engine
 * can evict down to budget under memory pressure.  One frame may be
 * *pinned* — the frame the fetch engine is currently sequencing —
 * and neither shedding nor ordinary capacity eviction will victimize
 * it (the shared_ptr keeps the object alive regardless; pinning keeps
 * the cache *entry*, so an in-flight frame cannot be re-requested as
 * a candidate and rebuilt while it executes).
 *
 * The cache is single-owner (the sequencer thread) and takes no lock:
 * a lock on the per-instruction lookup path would be pure overhead.
 */

#ifndef REPLAY_CORE_FRAMECACHE_HH
#define REPLAY_CORE_FRAMECACHE_HH

#include <cstdint>

#include "core/frame.hh"
#include "util/flathash.hh"
#include "util/governor.hh"
#include "util/stats.hh"

namespace replay::core {

/** LRU frame store with micro-op-slot capacity accounting. */
class FrameCache
{
  public:
    explicit FrameCache(unsigned capacity_uops = 16384);

    /**
     * Insert (or replace) a frame.  Evicts least-recently-used frames
     * until the new frame fits.  Frames larger than the whole cache —
     * or that cannot fit without evicting the pinned frame — are
     * rejected.
     */
    void insert(FramePtr frame);

    /** Look up a frame starting at @p pc; touches LRU state. */
    FramePtr lookup(uint32_t pc);

    /** Probe without touching LRU state. */
    FramePtr probe(uint32_t pc) const;

    /** Remove the frame at @p pc (e.g. after repeated assert fires). */
    void invalidate(uint32_t pc);

    /**
     * Versioned-slot swap for the tier engine: replace the body of the
     * *resident* entry at @p pc with @p next without touching its LRU
     * tick (publication is not a use).  The entry must exist and must
     * not be pinned — the caller defers publication while the
     * sequencer holds the frame.  Returns false (entry unchanged) if
     * the replacement would overflow capacity; re-optimized bodies
     * only shrink, so this is a chaos-only edge.
     */
    bool publish(uint32_t pc, FramePtr next);

    /** Is the entry at @p pc the pinned (in-flight) one? */
    bool
    isPinned(uint32_t pc) const
    {
        return pinnedValid_ && pinnedPc_ == pc;
    }

    /**
     * Pin the entry at @p pc (the frame being sequenced): it cannot be
     * shed or evicted until unpin().  At most one entry is pinned.
     */
    void pin(uint32_t pc);
    void unpin();

    /** Evict the unpinned LRU frame; false if none is evictable. */
    bool shedLru();

    /**
     * Evict unpinned LRU frames until occupancy <= @p target_uops.
     * Returns the number of frames shed.  The pinned frame is never a
     * victim, so the post-condition is occupancy <= max(target, pinned
     * frame size).
     */
    unsigned shedToUops(unsigned target_uops);

    /** Attach a governor; the cache reports footprint changes to it. */
    void setGovernor(ResourceGovernor *governor);

    /** Live footprint: frame bodies, path metadata, and the index. */
    size_t memoryBytes() const;

    /** Occupancy recounted by walking the table (audit path). */
    unsigned recountUops() const;

    /**
     * memoryBytes() recomputed from a direct recount rather than the
     * incremental occupied_ model; tests assert the two agree after
     * insert/publish/evict churn.
     */
    size_t auditBytes() const;

    unsigned occupiedUops() const { return occupied_; }

    unsigned capacityUops() const { return capacity_; }

    size_t numFrames() const { return frames_.size(); }

    StatGroup &stats() { return stats_; }

  private:
    /**
     * Fixed per-frame charge in the byte model: the frame header plus
     * path metadata, conservatively folded into one constant so the
     * model stays O(1) and deterministic.
     */
    static constexpr size_t PER_FRAME_OVERHEAD = sizeof(Frame) + 256;

    /** Evict the unpinned LRU entry; false if nothing is evictable. */
    bool evictLru(const char *counter);
    void syncGovernor();

    struct Entry
    {
        FramePtr frame;
        uint64_t lastUsed = 0;  ///< unique touch tick (monotonic)
    };

    unsigned capacity_;
    unsigned occupied_ = 0;
    uint64_t tick_ = 0;
    FlatMap<uint32_t, Entry> frames_;
    bool pinnedValid_ = false;
    uint32_t pinnedPc_ = 0;
    ResourceGovernor *governor_ = nullptr;
    unsigned governorId_ = 0;
    StatGroup stats_{"fcache"};
    Counter &hits_{stats_.counter("hits")};
    Counter &misses_{stats_.counter("misses")};
};

} // namespace replay::core

#endif // REPLAY_CORE_FRAMECACHE_HH
