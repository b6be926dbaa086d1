#include "cpu/memory.hh"

#include <bit>

namespace pca::cpu
{

WordMemory::WordMemory()
    : slots(initialCapacity), mask(initialCapacity - 1),
      shift(64 - std::countr_zero(initialCapacity))
{
}

void
WordMemory::clear()
{
    if (++epoch == 0) {
        // Wraparound: a slot stamped a full cycle ago would read as
        // live again. Retag every slot with the never-current 0.
        for (Slot &s : slots)
            s.epoch = 0;
        epoch = 1;
    }
    used = 0;
}

void
WordMemory::grow()
{
    std::vector<Slot> old(slots.size() * 2);
    old.swap(slots);
    mask = slots.size() - 1;
    --shift;
    for (const Slot &s : old) {
        if (s.epoch != epoch)
            continue;
        std::size_t i = home(s.addr);
        while (slots[i].epoch == epoch)
            i = (i + 1) & mask;
        slots[i] = s;
    }
}

} // namespace pca::cpu
