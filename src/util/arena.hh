/**
 * @file
 * Arena and object-pool allocation for the simulation hot path.
 *
 * The construct / optimize / deposit cycle runs once per candidate
 * frame — hundreds of thousands of times per sweep cell — and used to
 * pay for a fresh heap object graph (Frame, its vectors, the optimizer
 * scratch) on every iteration.  The Arena is a chunked bump allocator:
 * allocation is a pointer increment, nothing is freed individually, and
 * the whole arena releases at once.  The ObjectPool layers typed object
 * recycling on top: released objects keep their constructed state (so
 * std::vector members keep their grown capacity across reuse) and the
 * next acquire hands them back without touching the heap.
 *
 * Lifetime rules (see DESIGN.md): pooled objects may outlive the pool
 * handle that created them — the pool core is shared_ptr-owned and each
 * live object's deleter keeps it alive — but they must never outlive
 * their last shared_ptr.  The arena never shrinks; a pool's high-water
 * mark is the cost of its peak concurrent liveness.
 */

#ifndef REPLAY_UTIL_ARENA_HH
#define REPLAY_UTIL_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace replay {

/** Chunked bump allocator.  Not thread-safe; one arena per owner. */
class Arena
{
  public:
    explicit Arena(size_t chunk_bytes = 64 * 1024)
        : chunkBytes_(chunk_bytes)
    {
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Allocate @p bytes aligned to @p align.  Never returns null. */
    void *alloc(size_t bytes, size_t align = alignof(std::max_align_t));

    /** Typed allocation (memory only; caller placement-constructs). */
    template <typename T>
    T *
    allocFor()
    {
        return static_cast<T *>(alloc(sizeof(T), alignof(T)));
    }

    /** Total bytes handed out (diagnostics / bench). */
    size_t allocatedBytes() const { return allocated_; }

    /** Number of backing chunks (diagnostics / bench). */
    size_t chunkCount() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::unique_ptr<uint8_t[]> data;
        size_t used = 0;
        size_t size = 0;
    };

    size_t chunkBytes_;
    size_t allocated_ = 0;
    std::vector<Chunk> chunks_;
};

/**
 * Recycling pool of shared_ptr-managed objects backed by an Arena.
 *
 * acquire() pops a previously released object (constructed state and
 * vector capacities intact) or placement-constructs a fresh one in the
 * arena.  The returned shared_ptr's deleter pushes the object back to
 * the free list instead of destroying it.  Destruction of every pooled
 * object happens exactly once, when the last handle (pool or object)
 * drops the core.
 */
template <typename T>
class ObjectPool
{
  public:
    explicit ObjectPool(size_t chunk_bytes = 64 * 1024)
        : core_(std::make_shared<Core>(chunk_bytes))
    {
    }

    /** A recycled or freshly constructed object. */
    std::shared_ptr<T>
    acquire()
    {
        T *obj;
        if (!core_->free.empty()) {
            obj = core_->free.back();
            core_->free.pop_back();
        } else {
            obj = new (core_->arena.template allocFor<T>()) T();
            core_->all.push_back(obj);
        }
        // The deleter holds the core by value: objects may outlive the
        // pool handle, never the memory beneath them.
        return std::shared_ptr<T>(obj, Releaser{core_});
    }

    /** Objects ever constructed (arena-resident). */
    size_t totalObjects() const { return core_->all.size(); }

    /** Objects currently in the free list. */
    size_t freeObjects() const { return core_->free.size(); }

  private:
    struct Core
    {
        explicit Core(size_t chunk_bytes) : arena(chunk_bytes) {}
        ~Core()
        {
            for (T *obj : all)
                obj->~T();
        }

        Arena arena;
        std::vector<T *> all;
        std::vector<T *> free;
    };

    struct Releaser
    {
        std::shared_ptr<Core> core;
        void operator()(T *obj) const { core->free.push_back(obj); }
    };

    std::shared_ptr<Core> core_;
};

} // namespace replay

#endif // REPLAY_UTIL_ARENA_HH
