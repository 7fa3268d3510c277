/**
 * @file
 * Flat open-addressing hash containers for the lookup hot path.
 *
 * std::unordered_map pays a node allocation per insert and a pointer
 * chase per find; the simulator's per-instruction lookups (frame cache,
 * alias profile, quarantine) want the probe sequence to stay inside one
 * or two cache lines.  FlatMap / FlatSet keep keys, values, and a
 * one-byte state array in parallel flat vectors, probe linearly from a
 * multiplicative hash, and delete via tombstones.  Capacity is a power
 * of two and grows at 7/8 occupancy (counting tombstones, so probe
 * chains stay short under churn).
 *
 * Iteration (forEach / eraseIf) walks table order, which depends on the
 * insertion history — like every hash container, not a stable public
 * order.  Callers that need deterministic tie-breaking must not depend
 * on it.
 */

#ifndef REPLAY_UTIL_FLATHASH_HH
#define REPLAY_UTIL_FLATHASH_HH

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace replay {

namespace detail {

/** Finalizer-style mixer (splitmix64); good avalanche for int keys. */
inline uint64_t
mixHash(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // namespace detail

/** Open-addressing hash map with integer keys. */
template <typename K, typename V>
class FlatMap
{
    enum State : uint8_t
    {
        EMPTY = 0,
        FULL = 1,
        TOMB = 2,
    };

  public:
    FlatMap() = default;

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Pointer to the value for @p key, or null. */
    V *
    find(K key)
    {
        if (size_ == 0)
            return nullptr;
        const size_t idx = findIndex(key);
        return idx == NPOS ? nullptr : &vals_[idx];
    }

    const V *
    find(K key) const
    {
        if (size_ == 0)
            return nullptr;
        const size_t idx = findIndex(key);
        return idx == NPOS ? nullptr : &vals_[idx];
    }

    /** The value for @p key, default-constructing on first use. */
    V &
    operator[](K key)
    {
        reserveOne();
        const size_t mask = states_.size() - 1;
        size_t i = detail::mixHash(uint64_t(key)) & mask;
        size_t first_tomb = NPOS;
        for (;; i = (i + 1) & mask) {
            if (states_[i] == FULL) {
                if (keys_[i] == key)
                    return vals_[i];
            } else if (states_[i] == TOMB) {
                if (first_tomb == NPOS)
                    first_tomb = i;
            } else {
                const size_t slot = first_tomb == NPOS ? i : first_tomb;
                if (states_[slot] == EMPTY)
                    ++occupied_;
                states_[slot] = FULL;
                keys_[slot] = key;
                vals_[slot] = V{};
                ++size_;
                return vals_[slot];
            }
        }
    }

    /** Remove @p key; true if it was present. */
    bool
    erase(K key)
    {
        if (size_ == 0)
            return false;
        const size_t idx = findIndex(key);
        if (idx == NPOS)
            return false;
        states_[idx] = TOMB;
        vals_[idx] = V{};
        --size_;
        maybeCompact();
        return true;
    }

    void
    clear()
    {
        states_.assign(states_.size(), EMPTY);
        vals_.clear();
        vals_.resize(states_.size());
        size_ = 0;
        occupied_ = 0;
    }

    /** Visit every (key, value) pair, table order. */
    template <typename Fn>
    void
    forEach(Fn &&fn)
    {
        for (size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == FULL)
                fn(keys_[i], vals_[i]);
        }
    }

    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == FULL)
                fn(keys_[i], vals_[i]);
        }
    }

    /** Erase every pair the predicate accepts; returns erased count. */
    template <typename Fn>
    size_t
    eraseIf(Fn &&pred)
    {
        size_t erased = 0;
        for (size_t i = 0; i < states_.size(); ++i) {
            if (states_[i] == FULL && pred(keys_[i], vals_[i])) {
                states_[i] = TOMB;
                vals_[i] = V{};
                --size_;
                ++erased;
            }
        }
        if (erased)
            maybeCompact();
        return erased;
    }

    /** Tombstoned slots currently in the table (test introspection). */
    size_t tombstones() const { return occupied_ - size_; }

    /** Allocated slot count (power of two, or zero before first use). */
    size_t capacity() const { return states_.size(); }

    /**
     * Probe-chain length a find() of @p key walks, counting the slot
     * that terminates the search (test introspection).
     */
    size_t
    probeLength(K key) const
    {
        if (states_.empty())
            return 0;
        const size_t mask = states_.size() - 1;
        size_t i = detail::mixHash(uint64_t(key)) & mask;
        for (size_t len = 1;; i = (i + 1) & mask, ++len) {
            if (states_[i] == FULL && keys_[i] == key)
                return len;
            if (states_[i] == EMPTY)
                return len;
        }
    }

  private:
    static constexpr size_t NPOS = size_t(-1);
    static constexpr size_t MIN_CAPACITY = 16;

    size_t
    findIndex(K key) const
    {
        const size_t mask = states_.size() - 1;
        size_t i = detail::mixHash(uint64_t(key)) & mask;
        for (;; i = (i + 1) & mask) {
            if (states_[i] == FULL) {
                if (keys_[i] == key)
                    return i;
            } else if (states_[i] == EMPTY) {
                return NPOS;
            }
        }
    }

    void
    reserveOne()
    {
        if (states_.empty()) {
            rehash(MIN_CAPACITY);
            return;
        }
        // Grow at 7/8 occupancy including tombstones; rehashing also
        // drops the tombstones accumulated by churn.
        if ((occupied_ + 1) * 8 > states_.size() * 7) {
            const size_t want = (size_ + 1) * 8 > states_.size() * 7
                                    ? states_.size() * 2
                                    : states_.size();
            rehash(want);
        }
    }

    /**
     * Erase-side tombstone control.  Growth-path rehashes only happen
     * on insert, so a deletion-heavy phase (quarantine decay, cache
     * shoot-downs) used to accumulate tombstones without bound and
     * every miss probed through the whole graveyard.  Once tombstones
     * claim over a quarter of the table, rehash in place: same
     * capacity, but every chain shrinks back to the live entries.  Each
     * compaction costs O(capacity) and needs capacity/4 fresh erases
     * to re-arm, so the amortized cost per erase stays constant.
     */
    void
    maybeCompact()
    {
        const size_t tombs = occupied_ - size_;
        if (tombs > states_.size() / 4)
            rehash(states_.size());
    }

    void
    rehash(size_t new_capacity)
    {
        std::vector<uint8_t> old_states = std::move(states_);
        std::vector<K> old_keys = std::move(keys_);
        std::vector<V> old_vals = std::move(vals_);

        states_.assign(new_capacity, EMPTY);
        keys_.assign(new_capacity, K{});
        vals_.clear();
        vals_.resize(new_capacity);
        size_ = 0;
        occupied_ = 0;

        const size_t mask = new_capacity - 1;
        for (size_t i = 0; i < old_states.size(); ++i) {
            if (old_states[i] != FULL)
                continue;
            size_t j = detail::mixHash(uint64_t(old_keys[i])) & mask;
            while (states_[j] == FULL)
                j = (j + 1) & mask;
            states_[j] = FULL;
            keys_[j] = old_keys[i];
            vals_[j] = std::move(old_vals[i]);
            ++size_;
            ++occupied_;
        }
    }

    std::vector<uint8_t> states_;
    std::vector<K> keys_;
    std::vector<V> vals_;
    size_t size_ = 0;       ///< live entries
    size_t occupied_ = 0;   ///< live entries + tombstones
};

/** Open-addressing hash set with integer keys. */
template <typename K>
class FlatSet
{
  public:
    size_t size() const { return map_.size(); }
    bool empty() const { return map_.empty(); }
    bool contains(K key) const { return map_.find(key) != nullptr; }
    void insert(K key) { map_[key] = Unit{}; }
    bool erase(K key) { return map_.erase(key); }
    void clear() { map_.clear(); }
    size_t tombstones() const { return map_.tombstones(); }
    size_t capacity() const { return map_.capacity(); }
    size_t probeLength(K key) const { return map_.probeLength(key); }

  private:
    struct Unit
    {
    };
    FlatMap<K, Unit> map_;
};

} // namespace replay

#endif // REPLAY_UTIL_FLATHASH_HH
