/**
 * @file
 * Tests for the measurement harness: pattern semantics, benchmarks'
 * analytical models, error computation, and configuration checks.
 */

#include <gtest/gtest.h>

#include "harness/harness.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "support/random.hh"

namespace pca::harness
{
namespace
{

HarnessConfig
quietConfig(Interface iface = Interface::Pm,
            AccessPattern pattern = AccessPattern::StartRead,
            CountingMode mode = CountingMode::UserKernel)
{
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = iface;
    cfg.pattern = pattern;
    cfg.mode = mode;
    cfg.interruptsEnabled = false;
    cfg.seed = 77;
    return cfg;
}

TEST(MicroBench, NullHasZeroExpected)
{
    NullBench b;
    EXPECT_EQ(b.expectedInstructions(), 0u);
    EXPECT_EQ(b.name(), "null");
}

TEST(MicroBench, LoopModelIsOnePlusThreeMax)
{
    EXPECT_EQ(LoopBench(1).expectedInstructions(), 4u);
    EXPECT_EQ(LoopBench(1000).expectedInstructions(), 3001u);
    EXPECT_EQ(LoopBench(1000000).expectedInstructions(), 3000001u);
}

TEST(MicroBench, LoopRejectsZeroIterations)
{
    EXPECT_THROW(LoopBench(0), std::logic_error);
}

TEST(MicroBench, ArrayWalkModel)
{
    EXPECT_EQ(ArrayWalkBench(10, 64).expectedInstructions(), 52u);
}

TEST(Patterns, SupportMatrix)
{
    for (Interface i : allInterfaces()) {
        EXPECT_TRUE(patternSupported(i, AccessPattern::StartRead));
        EXPECT_TRUE(patternSupported(i, AccessPattern::StartStop));
        const bool reads_ok = !isPapiHigh(i);
        EXPECT_EQ(patternSupported(i, AccessPattern::ReadRead),
                  reads_ok);
        EXPECT_EQ(patternSupported(i, AccessPattern::ReadStop),
                  reads_ok);
    }
}

TEST(Patterns, UnsupportedPatternIsFatal)
{
    HarnessConfig cfg = quietConfig(Interface::PHpm,
                                    AccessPattern::ReadRead);
    EXPECT_THROW(MeasurementHarness{cfg}, std::runtime_error);
}

TEST(Patterns, TooManyCountersIsFatal)
{
    HarnessConfig cfg = quietConfig(Interface::Pm);
    cfg.processor = cpu::Processor::Core2Duo; // 2 counters
    cfg.extraEvents = {cpu::EventType::BrInstRetired,
                       cpu::EventType::IcacheMiss};
    EXPECT_THROW(MeasurementHarness{cfg}, std::runtime_error);
}

TEST(Patterns, StartPatternsLeaveC0Zero)
{
    for (auto pat :
         {AccessPattern::StartRead, AccessPattern::StartStop}) {
        const auto m =
            MeasurementHarness(quietConfig(Interface::Pm, pat))
                .measure(NullBench{});
        EXPECT_EQ(m.c0, 0u);
        EXPECT_GT(m.c1, 0u);
    }
}

TEST(Patterns, ReadPatternsCaptureBoth)
{
    for (auto pat :
         {AccessPattern::ReadRead, AccessPattern::ReadStop}) {
        const auto m =
            MeasurementHarness(quietConfig(Interface::Pm, pat))
                .measure(NullBench{});
        EXPECT_GT(m.c0, 0u);
        EXPECT_GT(m.c1, m.c0);
    }
}

TEST(ErrorModel, NullErrorIsNonNegative)
{
    for (Interface i : allInterfaces()) {
        for (AccessPattern p : allPatterns()) {
            if (!patternSupported(i, p))
                continue;
            const auto m = MeasurementHarness(quietConfig(i, p))
                               .measure(NullBench{});
            EXPECT_GE(m.error(), 0)
                << interfaceCode(i) << "/" << patternName(p);
        }
    }
}

TEST(ErrorModel, LoopMeasurementMatchesModelPlusOverhead)
{
    const LoopBench loop(10000);
    const auto m = MeasurementHarness(quietConfig(Interface::Pc))
                       .measure(loop);
    EXPECT_EQ(m.expected, 30001u);
    // Measured = model + fixed overhead; overhead is the same as
    // for the null benchmark on a quiet machine.
    const auto null_err = MeasurementHarness(quietConfig(Interface::Pc))
                              .measure(NullBench{})
                              .error();
    EXPECT_EQ(m.error(), null_err);
}

TEST(ErrorModel, UserErrorNoLargerThanUserKernel)
{
    for (Interface i : allInterfaces()) {
        const auto uk = MeasurementHarness(
                            quietConfig(i, AccessPattern::StartRead,
                                        CountingMode::UserKernel))
                            .measure(NullBench{});
        const auto u = MeasurementHarness(
                           quietConfig(i, AccessPattern::StartRead,
                                       CountingMode::User))
                           .measure(NullBench{});
        EXPECT_LE(u.error(), uk.error()) << interfaceCode(i);
    }
}

TEST(ErrorModel, KernelModeCountsOnlyKernel)
{
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::StartRead,
                                    CountingMode::Kernel);
    const auto m = MeasurementHarness(cfg).measure(NullBench{});
    // Expected is 0 for kernel-only counting; the measured delta is
    // pure kernel-side overhead.
    EXPECT_EQ(m.expected, 0u);
    EXPECT_GT(m.delta(), 0);
}

TEST(Determinism, SameSeedSameResult)
{
    const auto cfg = quietConfig(Interface::PLpc,
                                 AccessPattern::ReadRead);
    const auto a = MeasurementHarness(cfg).measure(NullBench{});
    const auto b = MeasurementHarness(cfg).measure(NullBench{});
    EXPECT_EQ(a.c0, b.c0);
    EXPECT_EQ(a.c1, b.c1);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
}

TEST(Determinism, MeasureManyUsesDistinctSeeds)
{
    HarnessConfig cfg = quietConfig(Interface::Pc);
    cfg.interruptsEnabled = true; // seeds shift interrupt phases
    const LoopBench loop(2000000);
    HarnessSession session(cfg, loop);
    std::vector<Measurement> ms;
    for (std::uint64_t r = 0; r < 4; ++r)
        ms.push_back(session.run(mixSeed(cfg.seed, r)));
    ASSERT_EQ(ms.size(), 4u);
    // Interrupt phases differ -> at least the cycle counts differ.
    bool any_diff = false;
    for (std::size_t i = 1; i < ms.size(); ++i)
        any_diff |= ms[i].run.cycles != ms[0].run.cycles;
    EXPECT_TRUE(any_diff);
}

TEST(Measurement, TscCapturedForPerfctr)
{
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::ReadRead);
    const auto m = MeasurementHarness(cfg).measure(NullBench{});
    EXPECT_GT(m.tsc1, m.tsc0);
}

TEST(Measurement, AllCounterValuesExposed)
{
    HarnessConfig cfg = quietConfig(Interface::Pm,
                                    AccessPattern::ReadRead);
    cfg.extraEvents = {cpu::EventType::BrInstRetired,
                       cpu::EventType::IcacheMiss};
    const auto m = MeasurementHarness(cfg).measure(NullBench{});
    EXPECT_EQ(m.c0All.size(), 3u);
    EXPECT_EQ(m.c1All.size(), 3u);
}

TEST(Measurement, CycleMeasurementHasNoExpectedModel)
{
    HarnessConfig cfg = quietConfig(Interface::Pm);
    cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
    const auto m = MeasurementHarness(cfg).measure(LoopBench{1000});
    EXPECT_EQ(m.expected, 0u);
    // ~2-3 cycles/iteration on K8.
    EXPECT_GT(m.delta(), 2000);
    EXPECT_LT(m.delta(), 10000);
}

TEST(Measurement, GroundTruthMatchesMeasurementForUserMode)
{
    // With perfctr fast reads the measured user-mode c-delta can be
    // cross-checked against the simulator's raw event counts.
    HarnessConfig cfg = quietConfig(Interface::Pc,
                                    AccessPattern::StartRead,
                                    CountingMode::User);
    const auto m = MeasurementHarness(cfg).measure(LoopBench{5000});
    // raw user instructions = harness + library + benchmark; the
    // measured delta must be smaller but within the overhead bound.
    EXPECT_LE(m.delta(),
              static_cast<SCount>(m.run.userInstr));
    EXPECT_GE(m.delta(), static_cast<SCount>(15001));
}

TEST(CountingModeTest, Names)
{
    EXPECT_STREQ(countingModeName(CountingMode::User), "user");
    EXPECT_STREQ(countingModeName(CountingMode::UserKernel),
                 "user+kernel");
    EXPECT_STREQ(countingModeName(CountingMode::Kernel), "kernel");
    EXPECT_EQ(toPlMask(CountingMode::Kernel), PlMask::Kernel);
}

TEST(InterfaceTest, CodesAndClassification)
{
    EXPECT_STREQ(interfaceCode(Interface::PLpc), "PLpc");
    EXPECT_TRUE(usesPerfmon(Interface::PHpm));
    EXPECT_FALSE(usesPerfmon(Interface::Pc));
    EXPECT_TRUE(isPapiHigh(Interface::PHpc));
    EXPECT_TRUE(isPapiLow(Interface::PLpm));
    EXPECT_FALSE(isPapiLow(Interface::Pm));
    EXPECT_EQ(allInterfaces().size(), 6u);
}

TEST(PatternTest, CodesAndNames)
{
    EXPECT_STREQ(patternCode(AccessPattern::StartRead), "ar");
    EXPECT_STREQ(patternCode(AccessPattern::StartStop), "ao");
    EXPECT_STREQ(patternCode(AccessPattern::ReadRead), "rr");
    EXPECT_STREQ(patternCode(AccessPattern::ReadStop), "ro");
    EXPECT_STREQ(patternName(AccessPattern::ReadStop), "read-stop");
    EXPECT_EQ(allPatterns().size(), 4u);
}

} // namespace
} // namespace pca::harness
