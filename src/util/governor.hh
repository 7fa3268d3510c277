/**
 * @file
 * The resource governor: session-scoped memory budgeting with a
 * pressure ladder.
 *
 * The ROADMAP's long-running server cannot let one session's frame
 * cache, arena pools, and index tables grow until the process dies;
 * it must *degrade* — shed cache, optimize less, stop constructing —
 * long before a real allocation fails.  The governor is the accounting
 * point for that: registered consumers (frame cache, frame pool,
 * quarantine table, ...) report their live footprint at well-defined
 * mutation points, and the governor folds the total against a
 * configurable budget into one of four pressure levels:
 *
 *   OK       — below softFrac: full service.
 *   SOFT     — the frame cache sheds LRU frames and rejects new
 *              admissions until pressure relieves.
 *   HARD     — additionally, new frames are optimized with the cheap
 *              pass subset (NOP removal + DCE) instead of the full
 *              pipeline.
 *   CRITICAL — frame construction is suspended entirely; the engine
 *              degrades to conventional fetch until pressure drops.
 *
 * Every upward transition is counted, so a run's RunStats record how
 * often (and how hard) it was squeezed.  The governor is intentionally
 * NOT thread-safe: one instance belongs to one session/simulator, the
 * same ownership discipline as the engine it governs — which is also
 * what keeps governed runs deterministic (pressure depends only on
 * the session's own allocation history, never on neighbours).  An
 * alloc-failure hook must not call back into the governor.
 *
 * A disabled governor (budgetBytes == 0, the default) always reports
 * OK and never fails an allocation, so paper-shape runs stay
 * bit-identical to the seed.
 *
 * The governor is also the allocation-failure injection point for the
 * chaos harness: a configurable hook decides, deterministically from
 * the campaign's seeded Rng, that the next tracked allocation "fails",
 * letting soak runs prove the degradation paths actually run.
 */

#ifndef REPLAY_UTIL_GOVERNOR_HH
#define REPLAY_UTIL_GOVERNOR_HH

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "util/stats.hh"

namespace replay {

/** Degradation ladder, ordered: comparisons express severity. */
enum class Pressure : uint8_t
{
    OK = 0,
    SOFT,
    HARD,
    CRITICAL,
};

const char *pressureName(Pressure level);

/** Budget and ladder thresholds (fractions of the budget). */
struct GovernorConfig
{
    /** Live-byte budget; 0 disables the governor (always OK). */
    size_t budgetBytes = 0;

    double softFrac = 0.70;
    double hardFrac = 0.85;
    double criticalFrac = 0.95;
};

/** Tracks live bytes of registered consumers against a budget. */
class ResourceGovernor
{
  public:
    explicit ResourceGovernor(GovernorConfig cfg = {});

    ResourceGovernor(const ResourceGovernor &) = delete;
    ResourceGovernor &operator=(const ResourceGovernor &) = delete;

    bool enabled() const { return cfg_.budgetBytes > 0; }
    size_t budgetBytes() const { return cfg_.budgetBytes; }

    /**
     * Register a consumer slot.  Consumers report *absolute* live
     * footprint via update() — absolute reports cannot leak the way
     * mismatched charge/release pairs can.
     */
    unsigned registerConsumer(std::string name);

    /** Report consumer @p id's current live footprint. */
    void update(unsigned id, size_t live_bytes);

    size_t liveBytes() const { return live_; }
    size_t peakBytes() const { return peak_; }
    Pressure pressure() const { return pressure_; }

    /** Live footprint last reported by consumer @p id. */
    size_t consumerBytes(unsigned id) const;

    /**
     * Chaos hook: when set, allocWouldFail() consults it before every
     * tracked allocation.  The engine treats a failure like a real
     * std::bad_alloc at that site — drop the work, count it, continue.
     */
    void
    setAllocFailureInjector(std::function<bool()> hook)
    {
        allocFail_ = std::move(hook);
    }

    /** Should the next tracked allocation be treated as failed? */
    bool allocWouldFail();

    /**
     * Counters:
     *   soft_transitions / hard_transitions / critical_transitions —
     *     upward entries into each level,
     *   ok_returns           — pressure relieved back to OK,
     *   injected_alloc_fails — allocWouldFail() hits.
     */
    StatGroup &stats() { return stats_; }

  private:
    void recompute();

    GovernorConfig cfg_;
    std::vector<std::pair<std::string, size_t>> consumers_;
    size_t live_ = 0;
    size_t peak_ = 0;
    Pressure pressure_ = Pressure::OK;
    std::function<bool()> allocFail_;
    StatGroup stats_{"governor"};
    Counter &softTransitions_{stats_.counter("soft_transitions")};
    Counter &hardTransitions_{stats_.counter("hard_transitions")};
    Counter &criticalTransitions_{stats_.counter("critical_transitions")};
    Counter &okReturns_{stats_.counter("ok_returns")};
    Counter &injectedAllocFails_{stats_.counter("injected_alloc_fails")};
};

} // namespace replay

#endif // REPLAY_UTIL_GOVERNOR_HH
