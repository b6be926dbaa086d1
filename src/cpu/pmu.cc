#include "cpu/pmu.hh"

#include "support/logging.hh"

namespace pca::cpu
{

Pmu::Pmu(const MicroArch &arch)
    : prog(static_cast<std::size_t>(arch.progCounters)),
      fixed(static_cast<std::size_t>(arch.fixedCounters)),
      readLatch(static_cast<std::size_t>(arch.progCounters))
{
    // Fixed-function counters have hardwired events (Core2 layout):
    // FIXED_CTR0 = instructions retired, 1 = core cycles, 2 = cycles
    // (reference, approximated as core cycles at a fixed governor).
    if (!fixed.empty())
        fixed[0].event = EventType::InstrRetired;
    if (fixed.size() > 1)
        fixed[1].event = EventType::CpuClkUnhalted;
    if (fixed.size() > 2)
        fixed[2].event = EventType::CpuClkUnhalted;
    rebuildActive();
}

std::uint64_t
Pmu::encodeEvtSel(EventType ev, PlMask pl, bool enable)
{
    std::uint64_t sel = static_cast<std::uint64_t>(ev) & 0xff;
    if (plMaskIncludes(pl, Mode::User))
        sel |= selUsrBit;
    if (plMaskIncludes(pl, Mode::Kernel))
        sel |= selOsBit;
    if (enable)
        sel |= selEnableBit;
    return sel;
}

EventType
Pmu::decodeEvent(std::uint64_t sel)
{
    const auto id = static_cast<std::uint8_t>(sel & 0xff);
    if (id >= numEvents)
        pca_panic("bad event id ", static_cast<int>(id),
                  " in event select");
    return static_cast<EventType>(id);
}

void
Pmu::wrmsr(std::uint32_t msr, std::uint64_t value)
{
    if (msr == msrTsc) {
        tsc = value;
        return;
    }
    if (msr >= msrEvtSelBase &&
        msr < msrEvtSelBase + prog.size()) {
        Counter &c = prog[msr - msrEvtSelBase];
        const EventType ev = decodeEvent(value);
        PlMask pl = PlMask::None;
        if (value & selUsrBit)
            pl = pl | PlMask::User;
        if (value & selOsBit)
            pl = pl | PlMask::Kernel;
        const bool enabled = (value & selEnableBit) != 0;
        // Drivers rewrite the same select on every start/stop: only
        // a change of event, privilege or enable moves the lists.
        if (ev == c.event && pl == c.pl && enabled == c.enabled)
            return;
        c.event = ev;
        c.pl = pl;
        c.enabled = enabled;
        rebuildActive();
        return;
    }
    if (msr >= msrPmcBase && msr < msrPmcBase + prog.size()) {
        Counter &c = prog[msr - msrPmcBase];
        c.value = value;
        // A value write re-bases the counter: the class split tracks
        // only events counted since, so sum(byClass) == value - base.
        c.byClass.fill(0);
        return;
    }
    if (msr >= msrFixedCtrBase &&
        msr < msrFixedCtrBase + fixed.size()) {
        Counter &c = fixed[msr - msrFixedCtrBase];
        c.value = value;
        c.byClass.fill(0);
        return;
    }
    if (msr == msrFixedCtrCtrl) {
        // 4 bits per fixed counter: bit0 OS, bit1 USR (IA32 layout).
        bool changed = false;
        for (std::size_t i = 0; i < fixed.size(); ++i) {
            const auto nib = (value >> (4 * i)) & 0xf;
            PlMask pl = PlMask::None;
            if (nib & 1)
                pl = pl | PlMask::Kernel;
            if (nib & 2)
                pl = pl | PlMask::User;
            const bool enabled = (nib & 3) != 0;
            changed |= pl != fixed[i].pl || enabled != fixed[i].enabled;
            fixed[i].pl = pl;
            fixed[i].enabled = enabled;
        }
        if (changed)
            rebuildActive();
        return;
    }
    pca_panic("wrmsr to unknown MSR 0x", std::hex, msr);
}

std::uint64_t
Pmu::rdmsr(std::uint32_t msr) const
{
    if (msr == msrTsc)
        return tsc;
    if (msr >= msrEvtSelBase && msr < msrEvtSelBase + prog.size()) {
        const Counter &c = prog[msr - msrEvtSelBase];
        return encodeEvtSel(c.event, c.pl, c.enabled);
    }
    if (msr >= msrPmcBase && msr < msrPmcBase + prog.size())
        return prog[msr - msrPmcBase].value & widthMask;
    if (msr >= msrFixedCtrBase && msr < msrFixedCtrBase + fixed.size())
        return fixed[msr - msrFixedCtrBase].value & widthMask;
    pca_panic("rdmsr of unknown MSR 0x", std::hex, msr);
}

std::uint64_t
Pmu::rdpmc(std::uint64_t select) const
{
    if (select & rdpmcFixedBit) {
        const auto i = static_cast<std::size_t>(select & ~rdpmcFixedBit);
        if (i >= fixed.size())
            pca_panic("rdpmc: no fixed counter ", i);
        return fixed[i].value & widthMask;
    }
    if (select >= prog.size())
        pca_panic("rdpmc: no programmable counter ", select);
    const auto i = static_cast<std::size_t>(select);
    // Latch the class split alongside the value so a capture a few
    // instructions later can attribute exactly this reading.
    readLatch[i] = prog[i].byClass;
    const Count v = prog[i].value & widthMask;
    return readTamper ? readTamper(v) : v;
}

void
Pmu::setCounterWidth(int bits)
{
    pca_assert(bits >= 8 && bits <= 64);
    widthBits = bits;
    widthMask = bits == 64 ? ~Count{0} : (Count{1} << bits) - 1;
}

void
Pmu::countSlow(EventType ev, Mode mode, Count n)
{
    const auto e = static_cast<std::size_t>(ev);
    const auto m = static_cast<std::size_t>(mode);
    const auto cls = static_cast<std::size_t>(attrCls);
    for (int i : active[e][m]) {
        Counter &c = prog[static_cast<std::size_t>(i)];
        c.value += n;
        c.byClass[cls] += n;
        if (c.samplePeriod != 0 && c.value >= c.samplePeriod) {
            // Overflow: re-arm and latch the PMI.
            c.value -= c.samplePeriod;
            pendingMask |= 1ULL << i;
        }
    }
    for (int i : activeFixed[e][m]) {
        Counter &c = fixed[static_cast<std::size_t>(i)];
        c.value += n;
        c.byClass[cls] += n;
    }
}

void
Pmu::setSamplePeriod(int i, Count period)
{
    Counter &c = prog.at(static_cast<std::size_t>(i));
    c.samplePeriod = period;
    c.value = 0;
    c.byClass.fill(0);
    if (period != 0)
        armedMask |= 1ULL << i;
    else
        armedMask &= ~(1ULL << i);
    pendingMask &= ~(1ULL << i);
}

int
Pmu::takeOverflow()
{
    if (pendingMask == 0)
        return -1;
    const int i = __builtin_ctzll(pendingMask);
    pendingMask &= ~(1ULL << i);
    return i;
}

const Pmu::Counter &
Pmu::progCounter(int i) const
{
    return prog.at(static_cast<std::size_t>(i));
}

const Pmu::Counter &
Pmu::fixedCounter(int i) const
{
    return fixed.at(static_cast<std::size_t>(i));
}

void
Pmu::setProgValue(int i, Count v)
{
    // Context restore: the counter logically continues, so the class
    // split is preserved (unlike a wrmsr reset).
    prog.at(static_cast<std::size_t>(i)).value = v;
}

const obs::AttrCounts &
Pmu::attrLatch(int i) const
{
    return readLatch.at(static_cast<std::size_t>(i));
}

void
Pmu::reset()
{
    for (auto &c : prog)
        c = Counter{};
    armedMask = 0;
    pendingMask = 0;
    for (std::size_t i = 0; i < fixed.size(); ++i) {
        const EventType ev = fixed[i].event;
        fixed[i] = Counter{};
        fixed[i].event = ev;
    }
    attrCls = obs::AttrClass::User;
    for (auto &latch : readLatch)
        latch.fill(0);
    tsc = 0;
    // Every counter is disabled now: the lists need clearing only if
    // some counter was counting.
    if (activeAnyMask[0] != 0 || activeAnyMask[1] != 0)
        rebuildActive();
}

void
Pmu::rebuildActive()
{
    for (auto &per_event : active)
        for (auto &lst : per_event)
            lst.clear();
    for (auto &per_event : activeFixed)
        for (auto &lst : per_event)
            lst.clear();

    auto add = [](auto &table, const std::vector<Counter> &ctrs) {
        for (std::size_t i = 0; i < ctrs.size(); ++i) {
            const Counter &c = ctrs[i];
            if (!c.enabled)
                continue;
            const auto e = static_cast<std::size_t>(c.event);
            for (Mode m : {Mode::User, Mode::Kernel}) {
                if (plMaskIncludes(c.pl, m))
                    table[e][static_cast<std::size_t>(m)]
                        .push_back(static_cast<int>(i));
            }
        }
    };
    add(active, prog);
    add(activeFixed, fixed);

    activeAnyMask = {0, 0};
    static_assert(numEvents <= 64);
    for (std::size_t e = 0; e < numEvents; ++e)
        for (std::size_t m = 0; m < 2; ++m)
            if (!active[e][m].empty() || !activeFixed[e][m].empty())
                activeAnyMask[m] |= std::uint64_t{1} << e;
}

} // namespace pca::cpu
