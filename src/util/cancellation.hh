/**
 * @file
 * Cooperative cancellation with soft deadlines.
 *
 * A CancelSource owns the shared stop state; CancelTokens are cheap
 * copyable views of it that long-running loops poll at checkpoints
 * (the simulator checks every few thousand trace records).  Stops are
 * *requests*: nothing is interrupted preemptively, the observing loop
 * throws CancelledError at its next checkpoint and stack unwinding
 * does the cleanup.  A deadline is a soft per-task watchdog — it fires
 * through the same token, so a wedged or stalled task cancels itself
 * the moment it reaches a checkpoint past its budget.
 *
 * Tokens are thread-safe (atomics only); a sweep watchdog may cancel
 * from one thread while workers poll from others.  A
 * default-constructed token is null and never stops.
 *
 * Locking discipline: this file is deliberately lock-free — the shared
 * CancelState is a pair of atomics, so tokens never take a sync::Mutex
 * and are excluded from the lock hierarchy.  That makes polling legal
 * from *any* context, including under every ranked lock.  Note the
 * one subtlety this design pushes outward: the token *handle* itself
 * (the shared_ptr) is copied, not atomic, so rebinding a stored token
 * while another thread reads it needs external guarding.
 */

#ifndef REPLAY_UTIL_CANCELLATION_HH
#define REPLAY_UTIL_CANCELLATION_HH

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>

namespace replay {

/** Thrown by CancelToken::throwIfStopped at a cancellation point. */
class CancelledError : public std::runtime_error
{
  public:
    explicit CancelledError(const std::string &what)
        : std::runtime_error(what)
    {
    }
};

namespace detail {

struct CancelState
{
    std::atomic<bool> cancelled{false};
    /** steady_clock deadline in ns since epoch; 0 = no deadline. */
    std::atomic<int64_t> deadlineNs{0};
};

inline int64_t
steadyNowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace detail

/** Pollable view of a CancelSource's stop state. */
class CancelToken
{
  public:
    /** Null token: stopRequested() is always false. */
    CancelToken() = default;

    bool
    cancelled() const
    {
        return state_ &&
               state_->cancelled.load(std::memory_order_relaxed);
    }

    /** Has the soft deadline passed? */
    bool
    expired() const
    {
        if (!state_)
            return false;
        const int64_t deadline =
            state_->deadlineNs.load(std::memory_order_relaxed);
        return deadline != 0 && detail::steadyNowNs() > deadline;
    }

    bool stopRequested() const { return cancelled() || expired(); }

    /** Cancellation point: throw CancelledError when stopped. */
    void
    throwIfStopped(const char *what) const
    {
        if (cancelled())
            throw CancelledError(std::string(what) + ": cancelled");
        if (expired())
            throw CancelledError(std::string(what) +
                                 ": soft deadline exceeded");
    }

  private:
    friend class CancelSource;
    explicit CancelToken(std::shared_ptr<detail::CancelState> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<detail::CancelState> state_;
};

/** Owner of a stop state; hand out tokens, cancel once. */
class CancelSource
{
  public:
    CancelSource() : state_(std::make_shared<detail::CancelState>()) {}

    CancelToken token() const { return CancelToken(state_); }

    void
    cancel()
    {
        state_->cancelled.store(true, std::memory_order_relaxed);
    }

    bool
    cancelled() const
    {
        return state_->cancelled.load(std::memory_order_relaxed);
    }

    /** Arm (or re-arm) the soft deadline @p budget from now. */
    void
    setDeadlineAfter(std::chrono::nanoseconds budget)
    {
        state_->deadlineNs.store(detail::steadyNowNs() + budget.count(),
                                 std::memory_order_relaxed);
    }

  private:
    std::shared_ptr<detail::CancelState> state_;
};

} // namespace replay

#endif // REPLAY_UTIL_CANCELLATION_HH
