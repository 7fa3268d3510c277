#include "core/framecache.hh"

namespace replay::core {

FrameCache::FrameCache(unsigned capacity_uops) : capacity_(capacity_uops)
{
}

void
FrameCache::evictLru()
{
    // Touch ticks are unique, so the strict minimum is exactly the
    // back of an LRU list.
    uint32_t victim_pc = 0;
    uint64_t victim_tick = UINT64_MAX;
    frames_.forEach([&](uint32_t pc, const Entry &entry) {
        if (entry.lastUsed < victim_tick) {
            victim_tick = entry.lastUsed;
            victim_pc = pc;
        }
    });
    Entry *victim = frames_.find(victim_pc);
    occupied_ -= victim->frame->numUops();
    frames_.erase(victim_pc);
    ++stats_.counter("evictions");
}

void
FrameCache::insert(FramePtr frame)
{
    const unsigned size = frame->numUops();
    if (size > capacity_) {
        ++stats_.counter("rejected");
        return;
    }
    const uint32_t pc = frame->startPc;
    invalidate(pc);
    // size <= capacity_, so the table holds a victim whenever the
    // newcomer does not fit yet.
    while (occupied_ + size > capacity_)
        evictLru();
    Entry &entry = frames_[pc];
    entry.frame = std::move(frame);
    entry.lastUsed = ++tick_;
    occupied_ += size;
    ++stats_.counter("inserts");
}

FramePtr
FrameCache::lookup(uint32_t pc)
{
    Entry *entry = frames_.find(pc);
    if (!entry) {
        ++misses_;
        return nullptr;
    }
    entry->lastUsed = ++tick_;
    ++hits_;
    return entry->frame;
}

FramePtr
FrameCache::probe(uint32_t pc) const
{
    const Entry *entry = frames_.find(pc);
    return entry ? entry->frame : nullptr;
}

void
FrameCache::invalidate(uint32_t pc)
{
    Entry *entry = frames_.find(pc);
    if (!entry)
        return;
    occupied_ -= entry->frame->numUops();
    frames_.erase(pc);
    ++stats_.counter("invalidations");
}

} // namespace replay::core
