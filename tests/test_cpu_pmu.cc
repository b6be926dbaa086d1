/**
 * @file
 * Unit tests for the PMU: MSR interface, event selects, privilege
 * masks, fixed counters, TSC.
 */

#include <gtest/gtest.h>

#include "cpu/microarch.hh"
#include "cpu/pmu.hh"

namespace pca::cpu
{
namespace
{

Pmu
makeK8Pmu()
{
    return Pmu(microArch(Processor::AthlonX2));
}

TEST(PmuTest, CounterCountsMatchTable1)
{
    EXPECT_EQ(Pmu(microArch(Processor::PentiumD)).numProg(), 18);
    EXPECT_EQ(Pmu(microArch(Processor::Core2Duo)).numProg(), 2);
    EXPECT_EQ(Pmu(microArch(Processor::AthlonX2)).numProg(), 4);
    EXPECT_EQ(Pmu(microArch(Processor::Core2Duo)).numFixed(), 3);
    EXPECT_EQ(Pmu(microArch(Processor::AthlonX2)).numFixed(), 0);
}

TEST(PmuTest, EncodeDecodeEvtSel)
{
    const auto sel = Pmu::encodeEvtSel(EventType::BrInstRetired,
                                       PlMask::UserKernel, true);
    EXPECT_TRUE(sel & Pmu::selUsrBit);
    EXPECT_TRUE(sel & Pmu::selOsBit);
    EXPECT_TRUE(sel & Pmu::selEnableBit);
    EXPECT_EQ(Pmu::decodeEvent(sel), EventType::BrInstRetired);
}

TEST(PmuTest, WrmsrConfiguresCounter)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase + 1,
              Pmu::encodeEvtSel(EventType::IcacheMiss, PlMask::User,
                                true));
    const auto &c = pmu.progCounter(1);
    EXPECT_EQ(c.event, EventType::IcacheMiss);
    EXPECT_EQ(c.pl, PlMask::User);
    EXPECT_TRUE(c.enabled);
    EXPECT_FALSE(pmu.progCounter(0).enabled);
}

TEST(PmuTest, RdmsrRoundTrip)
{
    Pmu pmu = makeK8Pmu();
    const auto sel = Pmu::encodeEvtSel(EventType::InstrRetired,
                                       PlMask::Kernel, true);
    pmu.wrmsr(Pmu::msrEvtSelBase, sel);
    EXPECT_EQ(pmu.rdmsr(Pmu::msrEvtSelBase), sel);
    pmu.wrmsr(Pmu::msrPmcBase, 1234);
    EXPECT_EQ(pmu.rdmsr(Pmu::msrPmcBase), 1234u);
}

TEST(PmuTest, CountRespectsEventType)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 5);
    pmu.count(EventType::BrInstRetired, Mode::User, 3);
    EXPECT_EQ(pmu.rdpmc(0), 5u);
}

TEST(PmuTest, CountRespectsPlMask)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired, PlMask::User,
                                true));
    pmu.wrmsr(Pmu::msrEvtSelBase + 1,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::Kernel, true));
    pmu.wrmsr(Pmu::msrEvtSelBase + 2,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 10);
    pmu.count(EventType::InstrRetired, Mode::Kernel, 4);
    EXPECT_EQ(pmu.rdpmc(0), 10u);
    EXPECT_EQ(pmu.rdpmc(1), 4u);
    EXPECT_EQ(pmu.rdpmc(2), 14u);
}

TEST(PmuTest, DisabledCounterStaysZero)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, false));
    pmu.count(EventType::InstrRetired, Mode::User, 7);
    EXPECT_EQ(pmu.rdpmc(0), 0u);
}

TEST(PmuTest, StoppingFreezesValue)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 3);
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, false));
    pmu.count(EventType::InstrRetired, Mode::User, 9);
    EXPECT_EQ(pmu.rdpmc(0), 3u);
}

TEST(PmuTest, TscAdvancesWithCycles)
{
    Pmu pmu = makeK8Pmu();
    EXPECT_EQ(pmu.rdtsc(), 0u);
    pmu.addCycles(100, Mode::User);
    pmu.addCycles(50, Mode::Kernel);
    EXPECT_EQ(pmu.rdtsc(), 150u);
}

TEST(PmuTest, CycleEventCountsPerMode)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::CpuClkUnhalted,
                                PlMask::Kernel, true));
    pmu.addCycles(100, Mode::User);
    pmu.addCycles(40, Mode::Kernel);
    EXPECT_EQ(pmu.rdpmc(0), 40u);
}

TEST(PmuTest, FixedCountersOnCore2)
{
    Pmu pmu(microArch(Processor::Core2Duo));
    // Enable fixed counter 0 (instructions) for user+kernel: nibble
    // 0b0011.
    pmu.wrmsr(Pmu::msrFixedCtrCtrl, 0x3);
    pmu.count(EventType::InstrRetired, Mode::User, 6);
    EXPECT_EQ(pmu.rdpmc(Pmu::rdpmcFixedBit | 0), 6u);
    // Fixed counter 1 (cycles) was not enabled.
    pmu.addCycles(10, Mode::User);
    EXPECT_EQ(pmu.rdpmc(Pmu::rdpmcFixedBit | 1), 0u);
}

TEST(PmuTest, WriteCounterValueViaMsr)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrPmcBase + 2, 999);
    EXPECT_EQ(pmu.rdpmc(2), 999u);
    pmu.setProgValue(2, 0);
    EXPECT_EQ(pmu.rdpmc(2), 0u);
}

TEST(PmuTest, ResetClearsEverything)
{
    Pmu pmu = makeK8Pmu();
    pmu.wrmsr(Pmu::msrEvtSelBase,
              Pmu::encodeEvtSel(EventType::InstrRetired,
                                PlMask::UserKernel, true));
    pmu.count(EventType::InstrRetired, Mode::User, 3);
    pmu.addCycles(10, Mode::User);
    pmu.reset();
    EXPECT_EQ(pmu.rdpmc(0), 0u);
    EXPECT_EQ(pmu.rdtsc(), 0u);
    EXPECT_FALSE(pmu.progCounter(0).enabled);
}

TEST(PmuTest, RedundantReprogrammingKeepsCounts)
{
    // Two PMUs see the same events; one has its selects and fixed
    // control rewritten with the same values before every batch, as
    // a driver's start/stop path does. Skipping the redundant list
    // rebuilds must leave every count identical, while a real change
    // (a new event, a disable, a reset) still takes effect.
    const MicroArch &arch = microArch(Processor::Core2Duo);
    Pmu once(arch);
    Pmu often(arch);
    const auto sel0 = Pmu::encodeEvtSel(EventType::InstrRetired,
                                        PlMask::User, true);
    const auto sel1 = Pmu::encodeEvtSel(EventType::BrInstRetired,
                                        PlMask::UserKernel, true);
    auto program = [&](Pmu &pmu) {
        pmu.wrmsr(Pmu::msrEvtSelBase, sel0);
        pmu.wrmsr(Pmu::msrEvtSelBase + 1, sel1);
        pmu.wrmsr(Pmu::msrFixedCtrCtrl, 0x3);
    };
    auto batch = [](Pmu &pmu, Count i) {
        pmu.count(EventType::InstrRetired, Mode::User, 3 + i);
        pmu.count(EventType::InstrRetired, Mode::Kernel, 5);
        pmu.count(EventType::BrInstRetired, Mode::Kernel, i);
        pmu.addCycles(7, Mode::User);
    };
    auto expectSame = [&] {
        for (int c = 0; c < 2; ++c)
            EXPECT_EQ(once.rdpmc(static_cast<std::uint64_t>(c)),
                      often.rdpmc(static_cast<std::uint64_t>(c)))
                << c;
        for (std::uint64_t f = 0; f < 3; ++f)
            EXPECT_EQ(once.rdpmc(Pmu::rdpmcFixedBit | f),
                      often.rdpmc(Pmu::rdpmcFixedBit | f))
                << f;
    };

    program(once);
    program(often);
    for (Count i = 0; i < 50; ++i) {
        program(often);
        batch(once, i);
        batch(often, i);
    }
    expectSame();
    EXPECT_EQ(often.rdpmc(0), 50u * 3 + 49u * 50 / 2);
    EXPECT_EQ(often.rdpmc(Pmu::rdpmcFixedBit | 0),
              50u * 3 + 49u * 50 / 2 + 50u * 5);

    // A changed select after the redundant writes still applies.
    const auto cyc = Pmu::encodeEvtSel(EventType::CpuClkUnhalted,
                                       PlMask::User, true);
    once.wrmsr(Pmu::msrEvtSelBase + 1, cyc);
    often.wrmsr(Pmu::msrEvtSelBase + 1, cyc);
    often.wrmsr(Pmu::msrEvtSelBase + 1, cyc);
    const Count before = often.rdpmc(1);
    batch(once, 1);
    batch(often, 1);
    EXPECT_EQ(often.rdpmc(1), before + 7);
    expectSame();

    // After a reset nothing counts until the selects are rewritten.
    once.reset();
    often.reset();
    batch(often, 1);
    EXPECT_EQ(often.rdpmc(0), 0u);
    EXPECT_EQ(often.rdpmc(Pmu::rdpmcFixedBit | 0), 0u);
    program(once);
    program(often);
    program(often);
    batch(once, 2);
    batch(often, 2);
    expectSame();
    EXPECT_EQ(often.rdpmc(0), 5u);
}

TEST(PmuTest, BadMsrPanics)
{
    Pmu pmu = makeK8Pmu();
    EXPECT_THROW(pmu.wrmsr(0xdead, 0), std::logic_error);
    EXPECT_THROW(pmu.rdmsr(0xdead), std::logic_error);
}

TEST(PmuTest, BadRdpmcPanics)
{
    Pmu pmu = makeK8Pmu();
    EXPECT_THROW(pmu.rdpmc(99), std::logic_error);
    EXPECT_THROW(pmu.rdpmc(Pmu::rdpmcFixedBit | 5), std::logic_error);
}

TEST(PmuTest, BadEventIdPanics)
{
    Pmu pmu = makeK8Pmu();
    EXPECT_THROW(pmu.wrmsr(Pmu::msrEvtSelBase, 0xff),
                 std::logic_error);
}

TEST(MicroArchTest, Table1Frequencies)
{
    EXPECT_DOUBLE_EQ(microArch(Processor::PentiumD).ghz, 3.0);
    EXPECT_DOUBLE_EQ(microArch(Processor::Core2Duo).ghz, 2.4);
    EXPECT_DOUBLE_EQ(microArch(Processor::AthlonX2).ghz, 2.2);
}

TEST(MicroArchTest, TimerPeriodIsMillisecond)
{
    // HZ=1000: one tick per 1/1000 s.
    const auto &cd = microArch(Processor::Core2Duo);
    EXPECT_EQ(cd.timerPeriodCycles(), 2400000u);
}

TEST(MicroArchTest, ProcessorCodes)
{
    EXPECT_STREQ(processorCode(Processor::PentiumD), "PD");
    EXPECT_STREQ(processorCode(Processor::Core2Duo), "CD");
    EXPECT_STREQ(processorCode(Processor::AthlonX2), "K8");
    EXPECT_EQ(allProcessors().size(), 3u);
}

} // namespace
} // namespace pca::cpu
