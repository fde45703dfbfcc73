/**
 * @file
 * Open-addressing hash map keyed by address.
 *
 * Replaces std::unordered_map on the per-event miss path (in-flight
 * fill index, prefetch lifecycle records, ISB's off-chip maps): one
 * flat power-of-two slot array, linear probing, backward-shift erase
 * (no tombstones, so probe chains never rot), and no per-insert
 * allocation once the table has grown to its working size. The
 * table never shrinks.
 *
 * invalidAddr marks an empty slot, so it cannot be a key: inserting
 * it is an assertion failure, and find/erase of it report absence
 * without probing (they would otherwise match an empty slot).
 *
 * Iteration order is deliberately not offered: every user only does
 * point operations, which is what lets this map stand in for
 * std::unordered_map without changing any result.
 */

#ifndef IPREF_UTIL_FLAT_MAP_HH
#define IPREF_UTIL_FLAT_MAP_HH

#include <bit>
#include <cstddef>
#include <utility>
#include <vector>

#include "util/logging.hh"
#include "util/types.hh"

namespace ipref
{

template <typename V>
class FlatAddrMap
{
  public:
    /** An empty map with room for about @p expected entries before
     *  its first growth. */
    explicit FlatAddrMap(std::size_t expected = 8)
    {
        resize(std::bit_ceil(expected < 4 ? std::size_t{8}
                                          : expected * 2));
    }

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Number of slots (a power of two, at least twice size()). */
    std::size_t capacity() const { return slots_.size(); }

    /** The value stored under @p key, or nullptr. The pointer stays
     *  valid until the next insertion or erase. */
    V *
    find(Addr key)
    {
        std::size_t i = indexOf(key);
        return i == npos ? nullptr : &slots_[i].value;
    }

    const V *
    find(Addr key) const
    {
        std::size_t i = indexOf(key);
        return i == npos ? nullptr : &slots_[i].value;
    }

    /** The value under @p key, value-initialised first if absent. */
    V &
    operator[](Addr key)
    {
        ipref_assert(key != invalidAddr);
        std::size_t i = home(key);
        for (;; i = next(i)) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == invalidAddr)
                break;
        }
        if ((size_ + 1) * 2 > slots_.size()) {
            // Keep the load factor at or below 1/2.
            resize(slots_.size() * 2);
            for (i = home(key); slots_[i].key != invalidAddr; i = next(i))
                ;
        }
        ++size_;
        slots_[i].key = key;
        return slots_[i].value;
    }

    /** Remove @p key; returns whether it was present. */
    bool
    erase(Addr key)
    {
        std::size_t hole = indexOf(key);
        if (hole == npos)
            return false;
        // Backward shift: pull later members of the probe run into
        // the hole whenever their home slot does not lie in the
        // cyclic range (hole, j], so lookups never meet a gap that
        // was not there when the key was inserted.
        for (std::size_t j = next(hole); slots_[j].key != invalidAddr;
             j = next(j)) {
            std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - hole) & mask_)) {
                slots_[hole] = std::move(slots_[j]);
                hole = j;
            }
        }
        slots_[hole] = Slot{};
        --size_;
        return true;
    }

    /** Slot where the probe for @p key starts (Fibonacci hashing:
     *  the top bits of key * 2^64/phi). Public so tests can build
     *  keys that collide or wrap around the table end. */
    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(
            (key * 0x9e3779b97f4a7c15ULL) >> shift_);
    }

  private:
    struct Slot
    {
        Addr key = invalidAddr;
        V value{};
    };

    static constexpr std::size_t npos = ~std::size_t{0};

    std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

    std::size_t
    indexOf(Addr key) const
    {
        if (key == invalidAddr)
            return npos;
        for (std::size_t i = home(key);; i = next(i)) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == invalidAddr)
                return npos;
        }
    }

    /** Rehash into @p slots slots (a power of two >= 2). */
    void
    resize(std::size_t slots)
    {
        std::vector<Slot> old(slots);
        old.swap(slots_);
        mask_ = slots - 1;
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        for (Slot &s : old) {
            if (s.key == invalidAddr)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != invalidAddr)
                i = next(i);
            slots_[i] = std::move(s);
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
};

} // namespace ipref

#endif // IPREF_UTIL_FLAT_MAP_HH
