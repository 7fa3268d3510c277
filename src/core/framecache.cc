#include "core/framecache.hh"

#include "util/logging.hh"

namespace replay::core {

FrameCache::FrameCache(unsigned capacity_uops) : capacity_(capacity_uops)
{
}

void
FrameCache::setGovernor(ResourceGovernor *governor)
{
    governor_ = governor;
    if (governor_) {
        governorId_ = governor_->registerConsumer("fcache");
        syncGovernor();
    }
}

size_t
FrameCache::memoryBytes() const
{
    // Deterministic O(1) model of the cache's live footprint: the
    // micro-op bodies dominate; each resident frame also carries its
    // fixed header plus path metadata (one PC per covered x86
    // instruction, conservatively folded into a per-frame constant),
    // and the open-addressing index holds full capacity live.
    return size_t(occupied_) * sizeof(opt::FrameUop) +
           frames_.size() * PER_FRAME_OVERHEAD + frames_.memoryBytes();
}

unsigned
FrameCache::recountUops() const
{
    unsigned total = 0;
    frames_.forEach([&](uint32_t, const Entry &entry) {
        total += entry.frame->numUops();
    });
    return total;
}

size_t
FrameCache::auditBytes() const
{
    // memoryBytes() rebuilt from a walk over the resident frames
    // instead of the incrementally-maintained occupied_ counter; any
    // divergence between the two is a bookkeeping leak.
    return size_t(recountUops()) * sizeof(opt::FrameUop) +
           frames_.size() * PER_FRAME_OVERHEAD + frames_.memoryBytes();
}

void
FrameCache::syncGovernor()
{
    if (governor_)
        governor_->update(governorId_, memoryBytes());
}

bool
FrameCache::evictLru(const char *counter)
{
    // Touch ticks are unique, so the strict minimum is exactly the
    // back of an LRU list.  The pinned entry (the frame currently
    // being sequenced) is never a victim.
    uint32_t victim_pc = 0;
    uint64_t victim_tick = UINT64_MAX;
    frames_.forEach([&](uint32_t pc, const Entry &entry) {
        if (isPinned(pc))
            return;
        if (entry.lastUsed < victim_tick) {
            victim_tick = entry.lastUsed;
            victim_pc = pc;
        }
    });
    if (victim_tick == UINT64_MAX)
        return false;
    Entry *victim = frames_.find(victim_pc);
    occupied_ -= victim->frame->numUops();
    frames_.erase(victim_pc);
    ++stats_.counter(counter);
    syncGovernor();
    return true;
}

bool
FrameCache::shedLru()
{
    return evictLru("pressure_sheds");
}

unsigned
FrameCache::shedToUops(unsigned target_uops)
{
    unsigned shed = 0;
    while (occupied_ > target_uops &&
           evictLru("pressure_sheds")) {
        ++shed;
    }
    return shed;
}

void
FrameCache::pin(uint32_t pc)
{
    pinnedValid_ = true;
    pinnedPc_ = pc;
}

void
FrameCache::unpin()
{
    pinnedValid_ = false;
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
    while (occupied_ + size > capacity_) {
        if (!evictLru("evictions")) {
            // Only the pinned frame is left and the newcomer still
            // does not fit: reject it rather than evict the frame
            // being sequenced.
            ++stats_.counter("rejected");
            return;
        }
    }
    Entry &entry = frames_[pc];
    entry.frame = std::move(frame);
    entry.lastUsed = ++tick_;
    occupied_ += size;
    ++stats_.counter("inserts");
    syncGovernor();
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
    syncGovernor();
}

bool
FrameCache::publish(uint32_t pc, FramePtr next)
{
    Entry *entry = frames_.find(pc);
    panic_if(!entry, "publish to a non-resident start pc %#x", pc);
    panic_if(isPinned(pc),
             "publish to the pinned (in-flight) entry");
    const unsigned old_size = entry->frame->numUops();
    const unsigned new_size = next->numUops();
    if (new_size > old_size &&
        occupied_ - old_size + new_size > capacity_) {
        ++stats_.counter("publish_rejects");
        return false;
    }
    entry->frame = std::move(next);
    // Republication is the one path where a resident body's size
    // changes underneath the occupancy model, so rebuild the counter
    // from the table instead of trusting an increment — publishes are
    // orders of magnitude rarer than lookups, and a drifted model
    // would silently skew governor pressure for the rest of the run.
    occupied_ = recountUops();
    // lastUsed is deliberately untouched: publication replaces the
    // body in place and must not perturb LRU victim selection.
    ++stats_.counter("publishes");
    syncGovernor();
    return true;
}

} // namespace replay::core
