/**
 * @file
 * Set-associative cache timing models and the Table 2 memory
 * hierarchy: 32kB 2-cycle L1 data cache, 512kB 10-cycle L2, 50-cycle
 * memory; instruction caches of 8kB (rePLay / trace cache configs) or
 * 64kB (the IC reference).
 */

#ifndef REPLAY_TIMING_CACHE_HH
#define REPLAY_TIMING_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace replay::timing {

/** One level of set-associative cache with true-LRU replacement. */
class CacheModel
{
  public:
    CacheModel(std::string name, uint32_t size_bytes,
               uint32_t line_bytes, uint32_t assoc,
               unsigned hit_latency);

    /** Access a line; true on hit.  Misses fill the line. */
    bool access(uint32_t addr);

    /** Probe without side effects. */
    bool contains(uint32_t addr) const;

    unsigned hitLatency() const { return hitLatency_; }
    uint32_t lineBytes() const { return lineBytes_; }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Way
    {
        uint32_t tag = 0;
        bool valid = false;
        uint64_t lastUse = 0;
    };

    uint32_t lineBytes_;
    uint32_t numSets_;
    unsigned lineShift_;        ///< log2(lineBytes_): no divide per access
    unsigned setShift_;         ///< log2(numSets_)
    uint32_t assoc_;
    unsigned hitLatency_;
    uint64_t useClock_ = 0;
    std::vector<Way> ways_;     ///< numSets_ x assoc_
    StatGroup stats_;
    // Bound once: StatGroup's map gives stable references, and access()
    // is too hot for a string lookup per call.
    Counter &hits_;
    Counter &misses_;
};

/** The data-side hierarchy: L1D -> L2 -> memory. */
class MemoryHierarchy
{
  public:
    struct Params
    {
        uint32_t l1SizeBytes = 32 * 1024;
        uint32_t l1LineBytes = 64;
        uint32_t l1Assoc = 4;
        unsigned l1HitLatency = 2;
        uint32_t l2SizeBytes = 512 * 1024;
        uint32_t l2LineBytes = 64;
        uint32_t l2Assoc = 8;
        unsigned l2HitLatency = 10;
        unsigned memLatency = 50;
    };

    MemoryHierarchy();
    explicit MemoryHierarchy(Params params);

    /** Latency of a data access; fills all levels. */
    unsigned access(uint32_t addr);

    /** Did the last access miss in the L1? */
    bool lastMissedL1() const { return lastMissedL1_; }

    CacheModel &l1() { return l1_; }
    CacheModel &l2() { return l2_; }

  private:
    Params params_;
    CacheModel l1_;
    CacheModel l2_;
    bool lastMissedL1_ = false;
};

/** Instruction-side: a single-level ICache backed by the L2/memory. */
class ICacheModel
{
  public:
    ICacheModel(uint32_t size_bytes, unsigned miss_latency,
                uint32_t line_bytes = 64, uint32_t assoc = 2);

    /**
     * Fetch the line containing @p addr.
     * @return 0 on hit, or the miss penalty in cycles.
     */
    unsigned fetch(uint32_t addr);

    CacheModel &cache() { return cache_; }

  private:
    CacheModel cache_;
    unsigned missLatency_;
};

} // namespace replay::timing

#endif // REPLAY_TIMING_CACHE_HH
