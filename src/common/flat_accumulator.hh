/**
 * @file
 * Flat open-addressing weight accumulator keyed by 64-bit outcomes.
 *
 * The hot accumulation paths (per-shot outcome counting in
 * NoisyMachine::run, basis-state marginalization in
 * idealDistribution) previously hammered a std::map<uint64_t,double>
 * — a node allocation plus pointer chase per insert.  This table uses
 * linear probing over a power-of-two slot array: no allocation per
 * insert, one cache line per probe, and a sortedItems() view for
 * deterministic export into Distribution.
 */

#ifndef ADAPT_COMMON_FLAT_ACCUMULATOR_HH
#define ADAPT_COMMON_FLAT_ACCUMULATOR_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace adapt
{

/** Open-addressing uint64 -> double accumulator (linear probing). */
class FlatAccumulator
{
  public:
    /** @param expected_keys Sizing hint; the table grows as needed. */
    explicit FlatAccumulator(size_t expected_keys = 16)
    {
        size_t capacity = 16;
        while (capacity < expected_keys * 2)
            capacity *= 2;
        slots_.assign(capacity, Slot{});
    }

    /** Number of distinct keys seen. */
    size_t size() const { return used_; }

    bool empty() const { return used_ == 0; }

    /** Add @p delta to the weight of @p key. */
    void
    add(uint64_t key, double delta)
    {
        if ((used_ + 1) * 4 >= slots_.size() * 3)
            grow();
        Slot &slot = slots_[probe(slots_, key)];
        if (!slot.used) {
            slot.used = true;
            slot.key = key;
            used_++;
        }
        slot.value += delta;
    }

    /** Accumulated weight of @p key (0 if never added). */
    double
    value(uint64_t key) const
    {
        const Slot &slot = slots_[probe(slots_, key)];
        return slot.used ? slot.value : 0.0;
    }

    /**
     * Append all (key, weight) pairs to @p out in table order
     * (unsorted), each weight rounded to an integer count — for
     * accumulators that count samples.  Lets a caller merging many
     * accumulators gather everything first and sort the combined list
     * once, instead of paying one sort per accumulator via
     * sortedItems().
     */
    void
    appendCountsTo(std::vector<std::pair<uint64_t, uint64_t>> &out) const
    {
        for (const Slot &slot : slots_) {
            if (slot.used) {
                out.emplace_back(slot.key, static_cast<uint64_t>(
                                               std::llround(slot.value)));
            }
        }
    }

    /** All (key, weight) pairs in ascending key order. */
    std::vector<std::pair<uint64_t, double>>
    sortedItems() const
    {
        std::vector<std::pair<uint64_t, double>> items;
        items.reserve(used_);
        for (const Slot &slot : slots_) {
            if (slot.used)
                items.emplace_back(slot.key, slot.value);
        }
        std::sort(items.begin(), items.end());
        return items;
    }

  private:
    struct Slot
    {
        uint64_t key = 0;
        double value = 0.0;
        bool used = false;
    };

    /** splitmix64 finalizer: uniform slot spread for structured keys
     *  (measurement bitstrings cluster in the low bits). */
    static uint64_t
    mix(uint64_t x)
    {
        x += 0x9e3779b97f4a7c15ULL;
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
        return x ^ (x >> 31);
    }

    /** Index of @p key's slot (or of the empty slot it would take). */
    static size_t
    probe(const std::vector<Slot> &slots, uint64_t key)
    {
        const size_t mask = slots.size() - 1;
        size_t i = static_cast<size_t>(mix(key)) & mask;
        while (slots[i].used && slots[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        std::vector<Slot> bigger(slots_.size() * 2);
        for (const Slot &slot : slots_) {
            if (slot.used)
                bigger[probe(bigger, slot.key)] = slot;
        }
        slots_.swap(bigger);
    }

    std::vector<Slot> slots_;
    size_t used_ = 0;
};

} // namespace adapt

#endif // ADAPT_COMMON_FLAT_ACCUMULATOR_HH
