/**
 * @file
 * The core's data memory: a sparse store of 64-bit words keyed by
 * address, in which every address not yet written reads 0. Every
 * simulated push, pop, load and store goes through it, so it is a
 * flat open-addressed table (power-of-two capacity, linear probing)
 * rather than a node-based map, and clear() is O(1): like
 * CacheModel::flush, it bumps an epoch that every live slot carries.
 */

#ifndef PCA_CPU_MEMORY_HH
#define PCA_CPU_MEMORY_HH

#include <cstdint>
#include <vector>

#include "support/types.hh"

namespace pca::cpu
{

/** Sparse word memory; unwritten addresses read 0. */
class WordMemory
{
  public:
    /** Initial capacity in slots (a power of two). */
    static constexpr std::size_t initialCapacity = 64;

    WordMemory();

    /** The word at @p addr (0 if never written since clear()). */
    std::uint64_t
    load(Addr addr) const
    {
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            const Slot &s = slots[i];
            if (s.epoch != epoch)
                return 0;
            if (s.addr == addr)
                return s.value;
        }
    }

    /** Write @p value at @p addr. */
    void
    store(Addr addr, std::uint64_t value)
    {
        for (std::size_t i = home(addr);; i = (i + 1) & mask) {
            Slot &s = slots[i];
            if (s.epoch != epoch) {
                s = {addr, value, epoch};
                if (2 * ++used > slots.size())
                    grow();
                return;
            }
            if (s.addr == addr) {
                s.value = value;
                return;
            }
        }
    }

    /** Forget every word in O(1) (capacity is kept). */
    void clear();

    /** Addresses written since the last clear(). */
    std::size_t size() const { return used; }

    /** Slots allocated (grows to keep the table at most half full). */
    std::size_t capacity() const { return slots.size(); }

  private:
    /**
     * A slot is live iff its epoch equals the table's. With no
     * deletions, the first non-live slot ends every probe chain.
     */
    struct Slot
    {
        Addr addr = 0;
        std::uint64_t value = 0;
        std::uint32_t epoch = 0;
    };

    /** Fibonacci hashing: the top bits of addr times 2^64 / phi. */
    std::size_t
    home(Addr addr) const
    {
        return static_cast<std::size_t>(
            (addr * 0x9e3779b97f4a7c15ULL) >> shift);
    }

    /** Double the capacity, re-inserting the live slots. */
    void grow();

    std::vector<Slot> slots;
    std::size_t mask = 0;
    unsigned shift = 64;
    std::size_t used = 0;
    std::uint32_t epoch = 1; // 0 never matches: slots start empty
};

} // namespace pca::cpu

#endif // PCA_CPU_MEMORY_HH
