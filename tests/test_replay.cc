/**
 * @file
 * Seed-invariant run replay (HarnessSession::tryRun, DESIGN §6.13):
 * a session that answers a run with its recorded interrupt-free run
 * must return exactly what a fresh session, which measures the run
 * in full, returns for that seed — every Measurement field, the
 * fast-forward count and the error attribution included. And every
 * path that must not replay (an interrupt inside the run, a fault
 * plan, the profiler, the tracer, the reference mode, retries)
 * measures in full and says why in its SPC.
 */

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cpu/microarch.hh"
#include "harness/session.hh"
#include "kernel/faults.hh"
#include "kernel/kernel.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"

using namespace pca;
using namespace pca::harness;
using obs::Spc;

namespace
{

void
expectSameMeasurement(const Measurement &a, const Measurement &b)
{
    EXPECT_EQ(a.c0, b.c0);
    EXPECT_EQ(a.c1, b.c1);
    EXPECT_EQ(a.tsc0, b.tsc0);
    EXPECT_EQ(a.tsc1, b.tsc1);
    EXPECT_EQ(a.c0All, b.c0All);
    EXPECT_EQ(a.c1All, b.c1All);
    EXPECT_EQ(a.expected, b.expected);
    EXPECT_EQ(a.run.userInstr, b.run.userInstr);
    EXPECT_EQ(a.run.kernelInstr, b.run.kernelInstr);
    EXPECT_EQ(a.run.cycles, b.run.cycles);
    EXPECT_EQ(a.run.interrupts, b.run.interrupts);
    EXPECT_EQ(a.run.fastForwardedIters, b.run.fastForwardedIters);
    EXPECT_EQ(a.attribution.patternOverhead,
              b.attribution.patternOverhead);
    EXPECT_EQ(a.attribution.timerInterrupts,
              b.attribution.timerInterrupts);
    EXPECT_EQ(a.attribution.ioInterrupts, b.attribution.ioInterrupts);
    EXPECT_EQ(a.attribution.preemption, b.attribution.preemption);
    EXPECT_EQ(a.attribution.other, b.attribution.other);
}

/** Equal measurements, or equal failures. */
void
expectSameOutcome(const StatusOr<Measurement> &a,
                  const StatusOr<Measurement> &b)
{
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok())
        expectSameMeasurement(*a, *b);
    else
        EXPECT_EQ(a.status().toString(), b.status().toString());
}

/** The run measured in full: a fresh session's first run. */
StatusOr<Measurement>
fullRun(const HarnessConfig &cfg, const MicroBenchmark &bench,
        std::uint64_t seed)
{
    return HarnessSession(cfg, bench).tryRun(seed);
}

/** Every replay counter, zeroed and enabled for one test. */
class ReplaySpcs
{
  public:
    ReplaySpcs()
    {
        obs::spcReset();
        obs::spcAttach("run_replays,replay_reject_irq,"
                       "replay_reject_faults,replay_reject_profile,"
                       "replay_reject_trace,replay_reject_reference,"
                       "runs_executed,session_retries");
    }
    ~ReplaySpcs() { obs::spcReset(); }

    Count replays() const { return obs::spcValue(Spc::RunReplays); }
    Count value(Spc c) const { return obs::spcValue(c); }

    /** Sum of the replay_reject_* counters. */
    Count
    rejects() const
    {
        return value(Spc::ReplayRejectIrq) +
            value(Spc::ReplayRejectFaults) +
            value(Spc::ReplayRejectProfile) +
            value(Spc::ReplayRejectTrace) +
            value(Spc::ReplayRejectReference);
    }
};

/**
 * First interrupt cycle a machine of @p cfg schedules after
 * reboot(seed): a standalone kernel of the same processor, I/O
 * setting and seed draws the same schedule.
 */
class Horizon
{
  public:
    explicit Horizon(const HarnessConfig &cfg)
        : k(cpu::microArch(cfg.processor), cfg.seed, cfg.ioInterrupts,
            0)
    {
    }

    Cycles
    at(std::uint64_t seed)
    {
        k.reset(seed);
        return k.interrupts().nextInterruptCycle();
    }

  private:
    kernel::Kernel k;
};

/** Runs @p seeds through one session, each against a full run. */
void
expectReplayInvisible(const HarnessConfig &cfg,
                      const MicroBenchmark &bench,
                      const std::vector<std::uint64_t> &seeds)
{
    HarnessSession sess(cfg, bench);
    for (std::uint64_t s : seeds) {
        SCOPED_TRACE("seed " + std::to_string(s));
        expectSameOutcome(sess.tryRun(s), fullRun(cfg, bench, s));
    }
}

std::vector<std::uint64_t>
seedRange(std::uint64_t first, int n)
{
    std::vector<std::uint64_t> out;
    for (int i = 0; i < n; ++i)
        out.push_back(first + static_cast<std::uint64_t>(i));
    return out;
}

} // namespace

/**
 * The null point of Figure 1 and a loop long enough to fast-forward
 * and, for some seeds, to take a timer tick: 50 seeds each, every
 * run against a fresh session's.
 */
TEST(Replay, NullAndFastForwardedLoopPointsMatchFullRuns)
{
    HarnessConfig cfg;
    cfg.iface = Interface::PLpc;
    cfg.pattern = AccessPattern::ReadRead;
    cfg.extraEvents = {cpu::EventType::CpuClkUnhalted};
    const auto seeds = seedRange(1, 50);

    {
        ReplaySpcs spc;
        expectReplayInvisible(cfg, NullBench{}, seeds);
        // Two sessions ran per seed (replaying and fresh); only the
        // replaying one can replay, and a null run rarely ticks.
        EXPECT_GE(spc.replays(), 45u);
        EXPECT_EQ(spc.value(Spc::RunsExecuted), 2 * seeds.size());
    }

    const LoopBench loop(400000);
    const Measurement first = fullRun(cfg, loop, 1).value();
    ASSERT_GT(first.run.fastForwardedIters, 0u);
    {
        ReplaySpcs spc;
        expectReplayInvisible(cfg, loop, seeds);
        EXPECT_GT(spc.replays(), 0u);
        // The loop runs long enough that some seeds tick inside it.
        EXPECT_GT(spc.value(Spc::ReplayRejectIrq), 0u);
        EXPECT_EQ(spc.replays() + spc.value(Spc::ReplayRejectIrq) + 1,
                  seeds.size());
    }
}

/**
 * The horizon rule is strict: a seed whose first interrupt is due
 * exactly at the recorded run's end cycle runs in full, and one due a
 * cycle later replays. Both seeds are found by search.
 */
TEST(Replay, HorizonAtTheRecordedEndRunsInFullOneAfterReplays)
{
    HarnessConfig cfg;
    const NullBench bench;
    Horizon horizon(cfg);

    const std::uint64_t rec_seed = 1;
    const Measurement rec = fullRun(cfg, bench, rec_seed).value();
    ASSERT_EQ(rec.run.interrupts, 0u);
    const Cycles end = rec.run.cycles;
    ASSERT_GT(horizon.at(rec_seed), end);

    std::uint64_t at_end = 0, after_end = 0;
    for (std::uint64_t s = 2; at_end == 0 || after_end == 0; ++s) {
        ASSERT_LT(s, 200'000'000u) << "search exhausted";
        const Cycles h = horizon.at(s);
        if (h == end && at_end == 0)
            at_end = s;
        if (h == end + 1 && after_end == 0)
            after_end = s;
    }

    // The two seeds measured in full by fresh sessions.
    const Measurement full_at = fullRun(cfg, bench, at_end).value();
    const Measurement full_after =
        fullRun(cfg, bench, after_end).value();
    EXPECT_EQ(full_after.run.interrupts, 0u);

    ReplaySpcs spc;
    HarnessSession sess(cfg, bench);
    expectSameMeasurement(sess.run(rec_seed), rec);
    EXPECT_EQ(spc.replays(), 0u);

    expectSameMeasurement(sess.run(at_end), full_at);
    EXPECT_EQ(spc.replays(), 0u);
    EXPECT_EQ(spc.value(Spc::ReplayRejectIrq), 1u);

    expectSameMeasurement(sess.run(after_end), full_after);
    EXPECT_EQ(spc.replays(), 1u);
    EXPECT_EQ(spc.value(Spc::ReplayRejectIrq), 1u);
}

/**
 * A run that took a tick is never recorded: the next interrupt-free
 * run is measured in full (and recorded), and only the one after it
 * replays.
 */
TEST(Replay, ARunThatTookATickIsNotRecorded)
{
    HarnessConfig cfg;
    const NullBench bench;
    Horizon horizon(cfg);
    const Cycles end = fullRun(cfg, bench, 1).value().run.cycles;

    std::uint64_t ticking = 0;
    for (std::uint64_t s = 2; ticking == 0; ++s) {
        ASSERT_LT(s, 10'000'000u) << "no seed ticks inside the run";
        if (horizon.at(s) < end / 2)
            ticking = s;
    }
    std::vector<std::uint64_t> clean;
    for (std::uint64_t s = 2; clean.size() < 2; ++s)
        if (horizon.at(s) > 2 * end)
            clean.push_back(s);

    ReplaySpcs spc;
    HarnessSession sess(cfg, bench);
    const Measurement ticked = sess.run(ticking);
    EXPECT_GT(ticked.run.interrupts, 0u);
    expectSameMeasurement(ticked, fullRun(cfg, bench, ticking).value());

    expectSameMeasurement(sess.run(clean[0]),
                          fullRun(cfg, bench, clean[0]).value());
    EXPECT_EQ(spc.replays(), 0u);
    EXPECT_EQ(spc.value(Spc::ReplayRejectIrq), 1u);

    const Measurement replayed = sess.run(clean[1]);
    EXPECT_EQ(spc.replays(), 1u);
    EXPECT_EQ(replayed.run.interrupts, 0u);
    expectSameMeasurement(replayed,
                          fullRun(cfg, bench, clean[1]).value());
}

/**
 * With interrupts off nothing seeded reaches any run: every run
 * after the first replays, even one far longer than a tick period.
 */
TEST(Replay, InterruptsDisabledReplaysEveryLaterRun)
{
    HarnessConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    const auto seeds = seedRange(11, 20);
    for (const Count iters : {Count{0}, Count{3'000'000}}) {
        SCOPED_TRACE("loop of " + std::to_string(iters));
        ReplaySpcs spc;
        if (iters == 0)
            expectReplayInvisible(cfg, NullBench{}, seeds);
        else
            expectReplayInvisible(cfg, LoopBench(iters), seeds);
        EXPECT_EQ(spc.replays(), seeds.size() - 1);
        EXPECT_EQ(spc.rejects(), 0u);
    }
}

/**
 * Each configuration that must measure every run in full declines
 * replay, says why in its own counter, and still equals the full
 * runs.
 */
TEST(Replay, DeclinedConfigurationsMeasureEveryRunAndSayWhy)
{
    struct Case
    {
        const char *name;
        Spc reason;
        void (*apply)(HarnessConfig &);
    };
    const std::vector<Case> cases = {
        {"fault plan", Spc::ReplayRejectFaults,
         [](HarnessConfig &c) {
             c.faults = kernel::FaultPlan::parse("seed=2,busy=0.0001");
         }},
        {"profiler", Spc::ReplayRejectProfile,
         [](HarnessConfig &c) { c.profile.enabled = true; }},
        {"decode cache off", Spc::ReplayRejectReference,
         [](HarnessConfig &c) { c.decodeCache = false; }},
        {"fast-forward off", Spc::ReplayRejectReference,
         [](HarnessConfig &c) { c.fastForward = false; }},
    };
    const auto seeds = seedRange(21, 6);
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        HarnessConfig cfg;
        cfg.iface = Interface::Pc;
        c.apply(cfg);
        ReplaySpcs spc;
        expectReplayInvisible(cfg, LoopBench(2000), seeds);
        EXPECT_EQ(spc.replays(), 0u);
        // Both the session and the fresh sessions decline.
        EXPECT_EQ(spc.value(c.reason), 2 * seeds.size());
        EXPECT_EQ(spc.rejects(), 2 * seeds.size());
    }
}

/**
 * The tracer is checked per run: armed after the session was built
 * and had recorded, it turns replay off for as long as it is on, and
 * the recording is used again once it is off.
 */
TEST(Replay, TracerArmedAfterTheSessionWasBuiltDeclines)
{
    HarnessConfig cfg;
    cfg.iface = Interface::PHpm;
    const LoopBench bench(3000);
    ReplaySpcs spc;
    HarnessSession sess(cfg, bench);
    expectSameMeasurement(sess.run(1), fullRun(cfg, bench, 1).value());
    expectSameMeasurement(sess.run(2), fullRun(cfg, bench, 2).value());
    ASSERT_EQ(spc.replays(), 1u);

    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    const Measurement traced3 = sess.run(3);
    const Measurement traced4 = sess.run(4);
    obs::tracer().setEnabled(false);
    // The traced runs were simulated: they left per-run events.
    EXPECT_GT(obs::tracer().size(), 0u);
    obs::tracer().clear();
    EXPECT_EQ(spc.replays(), 1u);
    EXPECT_EQ(spc.value(Spc::ReplayRejectTrace), 2u);
    expectSameMeasurement(traced3, fullRun(cfg, bench, 3).value());
    expectSameMeasurement(traced4, fullRun(cfg, bench, 4).value());

    expectSameMeasurement(sess.run(5), fullRun(cfg, bench, 5).value());
    EXPECT_EQ(spc.replays(), 2u);
}

/**
 * The retry path under a fault plan: transient failures retry with
 * derived seeds, and no attempt, first or retried, ever replays.
 */
TEST(Replay, RetriesUnderAFaultPlanNeverReplay)
{
    HarnessConfig cfg;
    cfg.faults = kernel::FaultPlan::parse("seed=5,attach=0.4,retries=6");
    const NullBench bench;
    ReplaySpcs spc;
    expectReplayInvisible(cfg, bench, seedRange(1, 24));
    EXPECT_GT(spc.value(Spc::SessionRetries), 0u);
    EXPECT_EQ(spc.replays(), 0u);
    // One decline per run; retries are not counted again.
    EXPECT_EQ(spc.value(Spc::ReplayRejectFaults), 2 * 24u);
}
