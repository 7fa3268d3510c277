/**
 * @file
 * Frame quarantine: a blacklist with decaying re-admission, sitting
 * alongside the bias-eviction watchdog in the sequencer.
 *
 * When the online verifier rejects a dispatched frame, the frame is
 * evicted and its start PC quarantined: the sequencer neither fetches
 * nor rebuilds frames there while the entry is active, so fetch falls
 * back to the conventional ICache path (graceful degradation).  Each
 * offence doubles the block duration (exponential backoff, capped);
 * quiet time forgives strikes one-by-one, so a PC that stops
 * misbehaving — e.g. the corrupt cache line was replaced — eventually
 * earns frames again.
 */

#ifndef REPLAY_CORE_QUARANTINE_HH
#define REPLAY_CORE_QUARANTINE_HH

#include <cstdint>

#include "util/flathash.hh"
#include "util/stats.hh"

namespace replay::core {

/** Backoff/decay policy (times are simulator cycles). */
struct QuarantineConfig
{
    uint64_t basePenaltyCycles = 50000;     ///< first-offence block
    uint64_t maxPenaltyCycles = 5000000;    ///< backoff cap
    uint64_t decayCycles = 1000000;         ///< quiet time per strike
    size_t maxEntries = 256;                ///< table bound
};

/** PC blacklist with exponential backoff and strike decay. */
class Quarantine
{
  public:
    explicit Quarantine(QuarantineConfig cfg = {});

    /** Record an offence at @p pc observed at cycle @p now. */
    void add(uint32_t pc, uint64_t now);

    /** Is @p pc currently blocked? (Applies decay/readmission.) */
    bool blocked(uint32_t pc, uint64_t now);

    /** Active strike count for @p pc (0 = not quarantined). */
    unsigned strikes(uint32_t pc, uint64_t now);

    size_t size() const { return entries_.size(); }

    StatGroup &stats() { return stats_; }

  private:
    struct Entry
    {
        unsigned strikes = 0;
        uint64_t blockedUntil = 0;
        uint64_t lastOffense = 0;
        bool readmitted = false;    ///< readmission already counted
    };

    /** Forgive strikes earned back by quiet time; true if expired. */
    bool decay(Entry &entry, uint64_t now) const;
    void prune(uint64_t now);

    QuarantineConfig cfg_;
    FlatMap<uint32_t, Entry> entries_;
    StatGroup stats_{"quarantine"};
};

} // namespace replay::core

#endif // REPLAY_CORE_QUARANTINE_HH
