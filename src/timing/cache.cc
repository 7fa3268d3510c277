#include "timing/cache.hh"

#include "util/bitfield.hh"
#include "util/logging.hh"

namespace replay::timing {

CacheModel::CacheModel(std::string name, uint32_t size_bytes,
                       uint32_t line_bytes, uint32_t assoc,
                       unsigned hit_latency)
    : lineBytes_(line_bytes), numSets_(size_bytes / line_bytes / assoc),
      lineShift_(floorLog2(line_bytes)), setShift_(floorLog2(numSets_)),
      assoc_(assoc), hitLatency_(hit_latency),
      ways_(numSets_ * assoc), stats_(std::move(name)),
      hits_(stats_.counter("hits")), misses_(stats_.counter("misses"))
{
    panic_if(!isPow2(line_bytes) || !isPow2(numSets_),
             "cache geometry must be power-of-two");
}

bool
CacheModel::access(uint32_t addr)
{
    const uint32_t line = addr >> lineShift_;
    const uint32_t set = line & (numSets_ - 1);
    const uint32_t tag = line >> setShift_;
    Way *base = &ways_[set * assoc_];
    ++useClock_;

    for (uint32_t w = 0; w < assoc_; ++w) {
        Way &way = base[w];
        if (way.valid && way.tag == tag) {
            way.lastUse = useClock_;
            ++hits_;
            return true;
        }
    }
    // Miss: fill into the first invalid way, else the LRU way.
    Way *victim = base;
    for (uint32_t w = 0; w < assoc_; ++w) {
        Way &way = base[w];
        if (!way.valid) {
            victim = &way;
            break;
        }
        if (way.lastUse < victim->lastUse)
            victim = &way;
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lastUse = useClock_;
    ++misses_;
    return false;
}

bool
CacheModel::contains(uint32_t addr) const
{
    const uint32_t line = addr >> lineShift_;
    const uint32_t set = line & (numSets_ - 1);
    const uint32_t tag = line >> setShift_;
    const Way *base = &ways_[set * assoc_];
    for (uint32_t w = 0; w < assoc_; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return true;
    }
    return false;
}

MemoryHierarchy::MemoryHierarchy() : MemoryHierarchy(Params()) {}

MemoryHierarchy::MemoryHierarchy(Params params)
    : params_(params),
      l1_("l1d", params.l1SizeBytes, params.l1LineBytes, params.l1Assoc,
          params.l1HitLatency),
      l2_("l2", params.l2SizeBytes, params.l2LineBytes, params.l2Assoc,
          params.l2HitLatency)
{
}

unsigned
MemoryHierarchy::access(uint32_t addr)
{
    if (l1_.access(addr)) {
        lastMissedL1_ = false;
        return params_.l1HitLatency;
    }
    lastMissedL1_ = true;
    if (l2_.access(addr))
        return params_.l2HitLatency;
    return params_.memLatency;
}

ICacheModel::ICacheModel(uint32_t size_bytes, unsigned miss_latency,
                         uint32_t line_bytes, uint32_t assoc)
    : cache_("icache", size_bytes, line_bytes, assoc, 1),
      missLatency_(miss_latency)
{
}

unsigned
ICacheModel::fetch(uint32_t addr)
{
    return cache_.access(addr) ? 0 : missLatency_;
}

} // namespace replay::timing
