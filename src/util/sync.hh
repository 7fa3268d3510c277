/**
 * @file
 * Capability-annotated synchronization layer + ranked lock hierarchy.
 *
 * Every mutex, condition variable, and lock guard in the codebase goes
 * through the wrappers in this file.  They buy two things the bare std
 * primitives cannot:
 *
 *  1. **Static discipline** — the wrappers carry Clang thread-safety
 *     attributes (`-Wthread-safety`), so fields declared
 *     `GUARDED_BY(mutex)` and functions declared `EXCLUDES(mutex)` are
 *     checked at *compile time*: every interleaving, not just the ones
 *     a test happens to schedule.  On non-Clang compilers the
 *     attributes expand to nothing and the wrappers compile down to
 *     the plain std primitives.
 *
 *  2. **Dynamic ordering** — each Mutex carries a hierarchy *rank*
 *     (see `sync::rank`).  In checked builds (armed by the
 *     `REPLAY_SYNC_HIERARCHY` compile definition; CMake arms it for
 *     every non-Release build type) a thread-local stack records every
 *     held mutex, and acquiring one whose rank is not strictly greater
 *     than everything already held PANICs immediately with both
 *     acquisition sites — turning a potential deadlock that TSA cannot
 *     express (lock *ordering* spans translation units) into a
 *     deterministic failure at first occurrence.  In Release builds
 *     the checker compiles to nothing: `lock()` is exactly
 *     `std::mutex::lock()`.
 *
 * The registered hierarchy (rank increases along the arrow; a thread
 * may only acquire left-to-right):
 *
 *   threadpool(50) -> trace_registry(60) -> [unranked leaf(90)]
 *                  -> report(100)
 *
 * `report` (the logging mutex) is deliberately the maximum so panic /
 * warn can always print, no matter what the failing thread holds.
 * Unranked mutexes default to LEAF: they may be taken while holding
 * any ranked lock, but never nest with each other.
 *
 * Single-owner structures (the rePLay engine and its frame cache) are
 * driven by one thread and take no lock.
 */

#ifndef REPLAY_UTIL_SYNC_HH
#define REPLAY_UTIL_SYNC_HH

#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/logging.hh"

// ---------------------------------------------------------------------
// Clang thread-safety-analysis attribute macros (no-ops elsewhere).
// Names and spellings follow the canonical mutex.h from the Clang TSA
// documentation, so the annotations read like every other TSA codebase.
// ---------------------------------------------------------------------

#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define REPLAY_TSA(x) __attribute__((x))
#endif
#endif
#ifndef REPLAY_TSA
#define REPLAY_TSA(x)
#endif

#define CAPABILITY(x) REPLAY_TSA(capability(x))
#define SCOPED_CAPABILITY REPLAY_TSA(scoped_lockable)
#define GUARDED_BY(x) REPLAY_TSA(guarded_by(x))
#define ACQUIRE(...) REPLAY_TSA(acquire_capability(__VA_ARGS__))
#define RELEASE(...) REPLAY_TSA(release_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) \
    REPLAY_TSA(release_generic_capability(__VA_ARGS__))
#define EXCLUDES(...) REPLAY_TSA(locks_excluded(__VA_ARGS__))

// ---------------------------------------------------------------------
// Hierarchy checker arming.  REPLAY_SYNC_HIERARCHY is a *build-wide*
// CMake definition (never defined per-TU: the wrapper methods are
// inline, and mixing checked and unchecked instantiations in one
// binary would be an ODR violation).
// ---------------------------------------------------------------------

#if defined(REPLAY_SYNC_HIERARCHY)
#define REPLAY_SYNC_CHECKED 1
#else
#define REPLAY_SYNC_CHECKED 0
#endif

namespace replay::sync {

/** Is the dynamic lock-hierarchy checker compiled in? */
constexpr bool
hierarchyChecked()
{
    return REPLAY_SYNC_CHECKED != 0;
}

/**
 * Lock-hierarchy ranks.  Acquiring a capability PANICs (checked
 * builds) unless its rank is strictly greater than the rank of every
 * capability the thread already holds — same-rank nesting is an error
 * too, which also catches self-deadlock by recursive acquisition.
 */
namespace rank {

inline constexpr uint16_t POOL = 50;        ///< ThreadPool mutex
inline constexpr uint16_t TRACE_REGISTRY = 60; ///< trace quarantine set
inline constexpr uint16_t LEAF = 90;        ///< default: never nests
inline constexpr uint16_t REPORT = 100;     ///< logging; always last

} // namespace rank

namespace detail {

#if REPLAY_SYNC_CHECKED

/** One held capability, with the site that acquired it. */
struct HeldEntry
{
    const void *cap;
    const char *name;
    uint16_t level;
    const char *file;
    unsigned line;
};

struct LockStack
{
    static constexpr unsigned MAX_DEPTH = 32;
    HeldEntry held[MAX_DEPTH];
    unsigned depth = 0;
};

inline LockStack &
lockStack()
{
    static thread_local LockStack stack;
    return stack;
}

/**
 * Record an acquisition; PANIC on a rank-order violation, reporting
 * the acquisition sites of both the new capability and the
 * highest-ranked one already held.  Called *before* the underlying
 * primitive blocks, so an ordering bug is reported deterministically
 * instead of deadlocking (sometimes).
 */
inline void
noteAcquire(const void *cap, const char *name, uint16_t level,
            const char *file, unsigned line)
{
    LockStack &stack = lockStack();
    if (stack.depth > 0) {
        const HeldEntry *worst = &stack.held[0];
        for (unsigned i = 1; i < stack.depth; ++i) {
            if (stack.held[i].level >= worst->level)
                worst = &stack.held[i];
        }
        if (level <= worst->level) {
            panic("lock-hierarchy violation: acquiring '%s' (rank %u) "
                  "at %s:%u while holding '%s' (rank %u) acquired at "
                  "%s:%u",
                  name, unsigned(level), file, line, worst->name,
                  unsigned(worst->level), worst->file, worst->line);
        }
    }
    panic_if(stack.depth >= LockStack::MAX_DEPTH,
             "lock-hierarchy stack overflow acquiring '%s' at %s:%u",
             name, file, line);
    stack.held[stack.depth++] = {cap, name, level, file, line};
}

/** Record a release (any order within the held set is legal). */
inline void
noteRelease(const void *cap, const char *name)
{
    LockStack &stack = lockStack();
    for (unsigned i = stack.depth; i > 0; --i) {
        if (stack.held[i - 1].cap == cap) {
            for (unsigned j = i - 1; j + 1 < stack.depth; ++j)
                stack.held[j] = stack.held[j + 1];
            --stack.depth;
            return;
        }
    }
    panic("releasing capability '%s' that this thread does not hold",
          name);
}

#endif // REPLAY_SYNC_CHECKED

} // namespace detail

/** Capabilities held by the calling thread (0 outside checked builds). */
inline unsigned
heldCapabilities()
{
#if REPLAY_SYNC_CHECKED
    return detail::lockStack().depth;
#else
    return 0;
#endif
}

// ---------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------

/**
 * Exclusive mutex with a TSA capability and a hierarchy rank.
 * Interface follows std::mutex (lock/unlock), with the
 * acquisition site captured by default arguments so hierarchy
 * violations report real file:line pairs.
 */
class CAPABILITY("mutex") Mutex
{
  public:
    explicit Mutex(const char *name = "mutex",
                   uint16_t level = rank::LEAF)
        : name_(name), level_(level)
    {
    }

    Mutex(const Mutex &) = delete;
    Mutex &operator=(const Mutex &) = delete;

    void
    lock(const char *file = __builtin_FILE(),
         unsigned line = __builtin_LINE()) ACQUIRE()
    {
#if REPLAY_SYNC_CHECKED
        detail::noteAcquire(this, name_, level_, file, line);
#else
        (void)file;
        (void)line;
#endif
        mu_.lock();
    }

    void
    unlock() RELEASE()
    {
#if REPLAY_SYNC_CHECKED
        detail::noteRelease(this, name_);
#endif
        mu_.unlock();
    }

    const char *name() const { return name_; }
    uint16_t level() const { return level_; }

  private:
    friend class CondVar;

    std::mutex mu_;
    const char *name_;
    uint16_t level_;
};

// ---------------------------------------------------------------------
// Guards
// ---------------------------------------------------------------------

/** RAII exclusive lock (std::lock_guard shape). */
class SCOPED_CAPABILITY LockGuard
{
  public:
    explicit LockGuard(Mutex &mu, const char *file = __builtin_FILE(),
                       unsigned line = __builtin_LINE()) ACQUIRE(mu)
        : mu_(mu)
    {
        mu_.lock(file, line);
    }

    ~LockGuard() RELEASE_GENERIC() { mu_.unlock(); }

    LockGuard(const LockGuard &) = delete;
    LockGuard &operator=(const LockGuard &) = delete;

  private:
    Mutex &mu_;
};

/**
 * RAII exclusive lock that can be dropped and re-taken mid-scope
 * (std::unique_lock shape) — the form condition-variable waits and
 * work-loop "unlock around the job" patterns need.
 */
class SCOPED_CAPABILITY UniqueLock
{
  public:
    explicit UniqueLock(Mutex &mu, const char *file = __builtin_FILE(),
                        unsigned line = __builtin_LINE()) ACQUIRE(mu)
        : mu_(&mu)
    {
        mu_->lock(file, line);
        owned_ = true;
    }

    ~UniqueLock() RELEASE_GENERIC()
    {
        if (owned_)
            mu_->unlock();
    }

    UniqueLock(const UniqueLock &) = delete;
    UniqueLock &operator=(const UniqueLock &) = delete;

    void
    lock(const char *file = __builtin_FILE(),
         unsigned line = __builtin_LINE()) ACQUIRE()
    {
        panic_if(owned_, "UniqueLock::lock while already locked");
        mu_->lock(file, line);
        owned_ = true;
    }

    void
    unlock() RELEASE()
    {
        panic_if(!owned_, "UniqueLock::unlock while not locked");
        mu_->unlock();
        owned_ = false;
    }

    bool ownsLock() const { return owned_; }

  private:
    friend class CondVar;

    Mutex *mu_;
    bool owned_ = false;
};

// ---------------------------------------------------------------------
// CondVar
// ---------------------------------------------------------------------

/**
 * Condition variable over sync::Mutex (via UniqueLock).  The wait
 * briefly releases the underlying std::mutex; the hierarchy stack
 * deliberately keeps the entry across the wait — the lock is re-held
 * before wait() returns, so the thread's ordering obligations are
 * unchanged at every point client code runs.  There is no predicate
 * overload: callers loop `while (!ready) cv.wait(lock);` so the
 * guarded reads stay in a scope thread-safety analysis can check.
 */
class CondVar
{
  public:
    CondVar() = default;

    CondVar(const CondVar &) = delete;
    CondVar &operator=(const CondVar &) = delete;

    /** Atomically release @p lock, sleep, and re-acquire before return. */
    void
    wait(UniqueLock &lock)
    {
        panic_if(!lock.ownsLock(),
                 "CondVar::wait on an unlocked UniqueLock");
        std::unique_lock<std::mutex> native(lock.mu_->mu_,
                                            std::adopt_lock);
        cv_.wait(native);
        native.release();
    }

    void notify_one() { cv_.notify_one(); }
    void notify_all() { cv_.notify_all(); }

  private:
    std::condition_variable cv_;
};

} // namespace replay::sync

#endif // REPLAY_UTIL_SYNC_HH
