/**
 * @file
 * The parallel study engine's two contracts: parallelFor runs every
 * index exactly once and propagates failures, and parallelism plus
 * the cross-run program cache are *invisible* — a cached, rebooted
 * session produces Measurements identical to a fresh harness, and
 * every canned study emits byte-identical CSV under PCA_THREADS=1
 * and PCA_THREADS=4.
 */

#include <atomic>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "kernel/faults.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/random.hh"

using namespace pca;
using namespace pca::harness;

// ---------------------------------------------------------------- //
// parallelFor unit tests
// ---------------------------------------------------------------- //

TEST(ParallelFor, EmptyRangeCallsNothing)
{
    std::atomic<int> calls{0};
    parallelFor(0, [&](std::size_t, int) { ++calls; }, 4);
    EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelFor, SingleItemRunsInline)
{
    std::atomic<int> calls{0};
    parallelFor(
        1,
        [&](std::size_t i, int worker) {
            EXPECT_EQ(i, 0u);
            EXPECT_EQ(worker, 0);
            ++calls;
        },
        8);
    EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelFor, MoreWorkersThanItems)
{
    std::vector<std::atomic<int>> hits(3);
    parallelFor(
        3, [&](std::size_t i, int) { ++hits[i]; }, 16);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EveryIndexExactlyOnce)
{
    constexpr std::size_t n = 997;
    std::vector<std::atomic<int>> hits(n);
    std::atomic<int> maxWorker{-1};
    parallelFor(
        n,
        [&](std::size_t i, int worker) {
            ++hits[i];
            int prev = maxWorker.load();
            while (worker > prev &&
                   !maxWorker.compare_exchange_weak(prev, worker)) {
            }
        },
        4);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_GE(maxWorker.load(), 0);
    EXPECT_LT(maxWorker.load(), 4);
}

TEST(ParallelFor, SerialFallbackPreservesIndexOrder)
{
    std::vector<std::size_t> order;
    parallelFor(
        10, [&](std::size_t i, int) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 10u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, ExceptionPropagatesFromWorker)
{
    EXPECT_THROW(
        parallelFor(
            100,
            [](std::size_t i, int) {
                if (i == 57)
                    throw std::runtime_error("boom");
            },
            4),
        std::runtime_error);
}

TEST(ParallelFor, ExceptionPropagatesInline)
{
    EXPECT_THROW(
        parallelFor(
            3,
            [](std::size_t i, int) {
                if (i == 2)
                    throw std::runtime_error("boom");
            },
            1),
        std::runtime_error);
}

TEST(ParallelFor, WorkerThrowKeepsLowestIndexError)
{
    // Two items fail; the rethrown exception must always be the
    // lower index's, regardless of which worker threw first.
    for (int round = 0; round < 8; ++round) {
        try {
            parallelFor(
                100,
                [](std::size_t i, int) {
                    if (i == 13)
                        throw std::runtime_error("boom13");
                    if (i == 77)
                        throw std::runtime_error("boom77");
                },
                4);
            FAIL() << "parallelFor swallowed the worker exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "boom13");
        }
    }
}

TEST(ParallelFor, EnvThreadsWorkerThrowDoesNotTerminate)
{
    // Regression: with PCA_THREADS=4 a throwing body used to be an
    // unhandled exception on a worker thread (std::terminate). It
    // must surface on the calling thread instead.
    setenv("PCA_THREADS", "4", 1);
    EXPECT_THROW(parallelFor(
                     64,
                     [](std::size_t i, int) {
                         if (i == 20)
                             throw std::runtime_error("boom");
                     },
                     0),
                 std::runtime_error);
    unsetenv("PCA_THREADS");
}

TEST(ParallelThreads, EnvControlsDefaultCount)
{
    setenv("PCA_THREADS", "3", 1);
    EXPECT_EQ(defaultThreadCount(), 3);
    setenv("PCA_THREADS", "0", 1);
    EXPECT_EQ(defaultThreadCount(), 1);
    unsetenv("PCA_THREADS");
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
}

TEST(DecodeEnv, TyposWarnAndKeepDefault)
{
    struct RecordingSink : LogSink
    {
        void
        emit(const std::string &level, const std::string &msg) override
        {
            lines.push_back(level + ": " + msg);
        }
        std::vector<std::string> lines;
    };
    RecordingSink sink;
    LogSink *prev = setLogSink(&sink);
    for (const char *on : {"1", "on", "true"}) {
        setenv("PCA_DECODE", on, 1);
        EXPECT_TRUE(defaultDecodeCache()) << on;
    }
    for (const char *off : {"0", "off", "false"}) {
        setenv("PCA_DECODE", off, 1);
        EXPECT_FALSE(defaultDecodeCache()) << off;
    }
    EXPECT_TRUE(sink.lines.empty());
    // Typos keep the default (on) and say so, like PCA_THREADS.
    for (const char *typo : {"of", "no", "2"}) {
        setenv("PCA_DECODE", typo, 1);
        EXPECT_TRUE(defaultDecodeCache()) << typo;
    }
    unsetenv("PCA_DECODE");
    EXPECT_TRUE(defaultDecodeCache());
    setLogSink(prev);
    ASSERT_EQ(sink.lines.size(), 3u);
    EXPECT_EQ(sink.lines[0],
              "warn: PCA_DECODE: ignoring unparsable value 'of'");
}

TEST(ParallelThreads, AutoSpecMeansHardwareConcurrency)
{
    setenv("PCA_THREADS", "auto", 1);
    EXPECT_EQ(defaultThreadCount(), hardwareThreads());
    unsetenv("PCA_THREADS");
}

// ---------------------------------------------------------------- //
// Session / cache equivalence
// ---------------------------------------------------------------- //

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

/** Equal measurements, or equal failures (fault plans). */
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

/**
 * A config on @p b's machine whose program differs from b's in
 * pattern, mode, counter count, tsc and opt level.
 */
HarnessConfig
otherProgramOn(const HarnessConfig &b)
{
    HarnessConfig a = b;
    a.pattern = b.pattern == AccessPattern::StartRead
        ? AccessPattern::StartStop
        : AccessPattern::StartRead;
    a.mode = b.mode == CountingMode::User ? CountingMode::UserKernel
                                          : CountingMode::User;
    a.extraEvents.clear();
    if (b.extraEvents.empty())
        a.extraEvents.push_back(cpu::EventType::CpuClkUnhalted);
    a.tsc = !b.tsc;
    a.optLevel = 3 - b.optLevel;
    return a;
}

} // namespace

/**
 * The contract the whole cache rests on: run(s) on a reused,
 * rebooted session equals measure() on a fresh machine with seed s —
 * for every interface, pattern, and mode, with interrupts and
 * preemption on.
 */
TEST(SessionEquivalence, RebootedRunEqualsFreshHarness)
{
    const LoopBench bench(5000);
    for (Interface iface : allInterfaces()) {
        for (AccessPattern pat : allPatterns()) {
            if (!patternSupported(iface, pat))
                continue;
            HarnessConfig cfg;
            cfg.iface = iface;
            cfg.pattern = pat;
            cfg.seed = 99;
            HarnessSession sess(cfg, bench);
            // Run the session repeatedly, interleaving seeds, so
            // later runs must not inherit state from earlier ones.
            const Measurement warm = sess.run(7);
            const Measurement viaSession = sess.run(99);
            const Measurement warmAgain = sess.run(7);
            const Measurement fresh =
                MeasurementHarness(cfg).measure(bench);
            expectSameMeasurement(viaSession, fresh);
            expectSameMeasurement(warm, warmAgain);
        }
    }
}

/**
 * The contract machine recycling rests on: a session built on the
 * machine another session released equals a fresh boot, for every
 * processor and interface, whatever program ran there before.
 */
TEST(SessionEquivalence, RecycledMachineEqualsFreshBoot)
{
    const LoopBench bench(5000);
    const LoopBench before(300);
    for (cpu::Processor proc : cpu::allProcessors()) {
        for (Interface iface : allInterfaces()) {
            HarnessConfig cfg;
            cfg.processor = proc;
            cfg.iface = iface;
            cfg.pattern = patternSupported(iface, AccessPattern::ReadStop)
                ? AccessPattern::ReadStop
                : AccessPattern::StartStop;
            cfg.extraEvents = {cpu::EventType::CpuClkUnhalted};
            cfg.optLevel = 3;
            const HarnessConfig prev = otherProgramOn(cfg);
            ASSERT_EQ(ProgramCache::keyParts(prev, before).machine,
                      ProgramCache::keyParts(cfg, bench).machine);
            ASSERT_NE(ProgramCache::keyParts(prev, before).program,
                      ProgramCache::keyParts(cfg, bench).program);

            HarnessSession a(prev, before);
            a.run(5);
            a.run(6);
            HarnessSession b(cfg, bench, a.releaseMachine());
            for (std::uint64_t seed : {77u, 78u}) {
                cfg.seed = seed;
                expectSameMeasurement(
                    b.run(seed), MeasurementHarness(cfg).measure(bench));
            }
        }
    }
}

/**
 * Recycling after a run the watchdog killed: the predecessor's last
 * run wedged in the hang plan's k_hang block and was reaped.
 */
TEST(SessionEquivalence, RecycledAfterAWatchdogKillEqualsFreshBoot)
{
    const LoopBench bench(2000);
    HarnessConfig cfg;
    cfg.iface = Interface::Pm;
    cfg.faults = kernel::FaultPlan::parse(
        "seed=4,hang=0.2,budget=300000,retries=0");
    cfg.pattern = AccessPattern::ReadRead;
    const HarnessConfig prev = otherProgramOn(cfg);

    HarnessSession a(prev, NullBench{});
    std::uint64_t hung = 1;
    for (;; ++hung) {
        ASSERT_LT(hung, 64u) << "no seed hung";
        const auto r = a.tryRun(hung);
        if (!r.ok() &&
            r.status().code() == StatusCode::DeadlineExceeded)
            break;
    }
    HarnessSession b(cfg, bench, a.releaseMachine());
    int ok = 0;
    for (std::uint64_t seed = hung; seed < hung + 8; ++seed) {
        const auto viaRecycled = b.tryRun(seed);
        ok += viaRecycled.ok();
        expectSameOutcome(viaRecycled,
                          HarnessSession(cfg, bench).tryRun(seed));
    }
    EXPECT_GT(ok, 0);
}

/**
 * Recycling after a traced session: its phase-marker host ops lived
 * in its own program and leave with it.
 */
TEST(SessionEquivalence, RecycledAfterATracedSessionEqualsFreshBoot)
{
    const LoopBench bench(1000);
    HarnessConfig cfg;
    cfg.iface = Interface::PLpc;
    cfg.seed = 31;
    const HarnessConfig prev = otherProgramOn(cfg);

    obs::tracer().clear();
    obs::tracer().setEnabled(true);
    HarnessSession a(prev, NullBench{});
    a.run(3);
    obs::tracer().setEnabled(false);
    EXPECT_GT(obs::tracer().size(), 0u);
    obs::tracer().clear();

    HarnessSession b(cfg, bench, a.releaseMachine());
    expectSameMeasurement(b.run(31),
                          MeasurementHarness(cfg).measure(bench));
    EXPECT_EQ(obs::tracer().size(), 0u);
}

/** Recycling a machine that boots with the sampling profiler. */
TEST(SessionEquivalence, RecycledProfiledMachineEqualsFreshBoot)
{
    const LoopBench bench(20000);
    HarnessConfig cfg;
    cfg.iface = Interface::PHpm;
    cfg.seed = 9;
    cfg.profile.enabled = true;
    const HarnessConfig prev = otherProgramOn(cfg);

    HarnessSession a(prev, NullBench{});
    a.run(4);
    HarnessSession b(cfg, bench, a.releaseMachine());
    expectSameMeasurement(b.run(9),
                          MeasurementHarness(cfg).measure(bench));
}

TEST(SessionEquivalence, CoversModesAndCounterSets)
{
    const NullBench bench;
    for (CountingMode mode :
         {CountingMode::User, CountingMode::UserKernel,
          CountingMode::Kernel}) {
        HarnessConfig cfg;
        cfg.iface = Interface::Pc;
        cfg.pattern = AccessPattern::ReadRead;
        cfg.mode = mode;
        cfg.extraEvents = {cpu::EventType::CpuClkUnhalted};
        cfg.seed = 1234;
        HarnessSession sess(cfg, bench);
        sess.run(5);
        expectSameMeasurement(
            sess.run(1234), MeasurementHarness(cfg).measure(bench));
    }
}

/**
 * Machine::reboot's identity contract under adverse state: after
 * fault-heavy runs that leave pending interrupts and a consumed
 * fault-decision stream behind, reboot(s) + run must still equal a
 * freshly constructed machine booted at seed s.
 */
TEST(SessionEquivalence, RebootUnderAdverseFaultStateMatchesFreshBoot)
{
    MachineConfig cfg;
    cfg.processor = cpu::Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.faults = kernel::FaultPlan::parse(
        "seed=3,drop=0.3,spurious=0.3,width=48");

    const auto buildLoop = [](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Eax, 0);
        const int loop = a.label();
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, 50000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
    };

    Machine adverse(cfg);
    buildLoop(adverse);
    // Dirty the machine: several runs at other seeds, each drawing
    // from the fault streams and leaving interrupt state behind.
    (void)adverse.tryRun(); // boot seed
    for (std::uint64_t s : {11u, 12u, 13u}) {
        adverse.reboot(s);
        (void)adverse.tryRun();
    }

    adverse.reboot(42);
    const auto r1 = adverse.tryRun();

    MachineConfig freshCfg = cfg;
    freshCfg.seed = 42;
    Machine fresh(freshCfg);
    buildLoop(fresh);
    const auto r2 = fresh.tryRun();

    ASSERT_EQ(r1.ok(), r2.ok());
    if (r1.ok()) {
        EXPECT_EQ(r1->userInstr, r2->userInstr);
        EXPECT_EQ(r1->kernelInstr, r2->kernelInstr);
        EXPECT_EQ(r1->cycles, r2->cycles);
        EXPECT_EQ(r1->interrupts, r2->interrupts);
    } else {
        EXPECT_EQ(r1.status().toString(), r2.status().toString());
    }
}

/**
 * The same contract one level up: a session that has burned retries
 * on earlier faulty runs must produce the same result for seed s as
 * a fresh session that never faulted.
 */
TEST(SessionEquivalence, RetryHistoryInvisibleAcrossSessionRuns)
{
    const NullBench bench;
    HarnessConfig cfg;
    cfg.faults =
        kernel::FaultPlan::parse("seed=5,attach=0.4,retries=6");

    HarnessSession dirty(cfg, bench);
    for (std::uint64_t s = 1; s <= 4; ++s)
        (void)dirty.tryRun(s);
    const auto viaDirty = dirty.tryRun(42);

    HarnessSession freshSess(cfg, bench);
    const auto viaFresh = freshSess.tryRun(42);

    ASSERT_EQ(viaDirty.ok(), viaFresh.ok());
    if (viaDirty.ok())
        expectSameMeasurement(*viaDirty, *viaFresh);
    else
        EXPECT_EQ(viaDirty.status().toString(),
                  viaFresh.status().toString());
}

TEST(ProgramCache, HitsAndMissesAndLru)
{
    const NullBench bench;
    HarnessConfig a;
    a.iface = Interface::Pc;
    HarnessConfig b = a;
    b.iface = Interface::Pm;

    ProgramCache cache(2);
    EXPECT_NE(ProgramCache::key(a, bench), ProgramCache::key(b, bench));

    cache.session(a, bench);
    cache.session(a, bench);
    cache.session(b, bench);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.size(), 2u);

    // One entry per machine configuration: another program on a's
    // machine replaces a's session instead of taking a slot.
    HarnessConfig aO0 = a;
    aO0.optLevel = 0;
    cache.session(aO0, bench);
    EXPECT_EQ(cache.misses(), 3u);
    EXPECT_EQ(cache.size(), 2u);
    cache.session(b, bench);
    EXPECT_EQ(cache.hits(), 2u);

    // Capacity 1: alternating configs always evict each other...
    ProgramCache tiny(1);
    tiny.session(a, bench);
    tiny.session(b, bench);
    tiny.session(a, bench);
    EXPECT_EQ(tiny.misses(), 3u);
    EXPECT_EQ(tiny.size(), 1u);

    // ...and eviction does not change results.
    HarnessSession &evicted = tiny.session(b, bench);
    const Measurement m = evicted.run(42);
    b.seed = 42;
    expectSameMeasurement(m, MeasurementHarness(b).measure(bench));
}

namespace
{

/** A null benchmark that records its cache's size when emitted. */
class CacheSizeProbe : public MicroBenchmark
{
  public:
    CacheSizeProbe(const ProgramCache &cache, int id,
                   std::vector<std::size_t> &sizes)
        : cache(cache), id(id), sizes(sizes)
    {
    }

    std::string name() const override { return "probe"; }
    std::string cacheKey() const override
    {
        return "probe" + std::to_string(id);
    }
    void
    emit(isa::Assembler &a) const override
    {
        (void)a;
        sizes.push_back(cache.size());
    }
    Count expectedInstructions() const override { return 0; }

  private:
    const ProgramCache &cache;
    int id;
    std::vector<std::size_t> &sizes;
};

} // namespace

TEST(ProgramCache, AMissAtCapacityNeverExceedsIt)
{
    // A session is built while its cache holds the others: at
    // capacity, the victim must already be gone. Six machine
    // configurations (the preemption probability is part of the
    // machine), then six programs on the last one's machine, whose
    // cached session must be gone too.
    for (std::size_t cap : {1u, 2u, 3u}) {
        ProgramCache cache(cap);
        std::vector<std::size_t> sizes;
        HarnessConfig cfg;
        for (int i = 0; i < 6; ++i) {
            cfg.preemptProb = 0.01 * (i + 1);
            cache.session(cfg, CacheSizeProbe(cache, i, sizes));
        }
        ASSERT_EQ(sizes.size(), 6u);
        for (std::size_t live : sizes)
            EXPECT_LE(live + 1, cap);
        EXPECT_EQ(cache.size(), cap);

        sizes.clear();
        for (int i = 6; i < 12; ++i)
            cache.session(cfg, CacheSizeProbe(cache, i, sizes));
        for (std::size_t live : sizes)
            EXPECT_EQ(live + 1, cap);
        EXPECT_EQ(cache.size(), cap);
    }
}

TEST(ProgramCache, BootsEachMachineConfigurationOnce)
{
    // A sweep that takes its machine configurations one after the
    // other, several programs each (as the study engine's points
    // come), boots each configuration once at any capacity: every
    // miss after the first of a configuration recycles its machine.
    using obs::Spc;
    const Interface ifaces[] = {Interface::Pc, Interface::Pm,
                                Interface::PLpc};
    for (std::size_t cap : {1u, 2u, 32u}) {
        obs::spcReset();
        obs::spcAttach("machine_boots,machine_reuses");
        ProgramCache cache(cap);
        for (const Interface iface : ifaces) {
            HarnessConfig cfg;
            cfg.iface = iface;
            for (int opt = 0; opt < 3; ++opt) {
                cfg.optLevel = opt;
                cache.session(cfg, NullBench{});
                cache.session(cfg, LoopBench{100});
            }
        }
        EXPECT_EQ(obs::spcValue(Spc::MachineBoots), 3u) << "cap " << cap;
        EXPECT_EQ(obs::spcValue(Spc::MachineReuses), 15u)
            << "cap " << cap;
        EXPECT_EQ(cache.size(), std::min<std::size_t>(cap, 3));

        // With room for every configuration, coming back to one
        // boots nothing either.
        if (cap >= 3) {
            for (const Interface iface : ifaces) {
                HarnessConfig cfg;
                cfg.iface = iface;
                cache.session(cfg, NullBench{});
            }
            EXPECT_EQ(obs::spcValue(Spc::MachineBoots), 3u);
        }
    }
    obs::spcReset();
}

TEST(ProgramCache, RecyclesAnEvictedMachineOfTheSameConfig)
{
    using obs::Spc;
    obs::spcAttach(
        "machine_boots,machine_reuses,machine_reuse_reject_config");
    HarnessConfig pc;
    pc.iface = Interface::Pc;
    HarnessConfig pcO0 = pc;
    pcO0.optLevel = 0;
    HarnessConfig pm;
    pm.iface = Interface::Pm;

    ProgramCache cache(1);
    cache.session(pc, NullBench{});     // boots
    cache.session(pcO0, NullBench{});   // reuses pc's machine
    cache.session(pm, NullBench{});     // rejects it, boots
    cache.session(pm, LoopBench{4000}); // reuses pm's machine
    EXPECT_EQ(obs::spcValue(Spc::MachineBoots), 2u);
    EXPECT_EQ(obs::spcValue(Spc::MachineReuses), 2u);
    EXPECT_EQ(obs::spcValue(Spc::MachineReuseRejectConfig), 1u);
    obs::spcReset();

    pm.seed = 5;
    expectSameMeasurement(cache.session(pm, LoopBench{4000}).run(5),
                          MeasurementHarness(pm).measure(LoopBench{4000}));
}

TEST(ProgramCache, KeyIgnoresSeedOnly)
{
    const NullBench bench;
    HarnessConfig a;
    HarnessConfig b = a;
    b.seed = a.seed + 1;
    EXPECT_EQ(ProgramCache::key(a, bench), ProgramCache::key(b, bench));

    HarnessConfig c = a;
    c.preemptProb = a.preemptProb / 2;
    EXPECT_NE(ProgramCache::key(a, bench), ProgramCache::key(c, bench));

    EXPECT_NE(ProgramCache::key(a, NullBench{}),
              ProgramCache::key(a, LoopBench{10}));
    EXPECT_NE(ProgramCache::key(a, LoopBench{10}),
              ProgramCache::key(a, LoopBench{20}));
}

// ---------------------------------------------------------------- //
// Studies: PCA_THREADS must be invisible in the output
// ---------------------------------------------------------------- //

namespace
{

/** Run @p study with PCA_THREADS=@p threads; return its CSV. */
template <typename StudyFn>
std::string
csvWithThreads(int threads, StudyFn &&study)
{
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
    const core::DataTable table = study();
    unsetenv("PCA_THREADS");
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

} // namespace

TEST(ParallelStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1})
                            .generate();
    ASSERT_FALSE(points.empty());
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42, obs);
    };
    const std::string serial = csvWithThreads(1, study);
    const std::string parallel = csvWithThreads(4, study);
    EXPECT_EQ(serial, parallel);
}

TEST(ParallelStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo,
                      cpu::Processor::PentiumD};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    auto study = [&] { return core::runDurationStudy(opt); };
    EXPECT_EQ(csvWithThreads(1, study), csvWithThreads(4, study));
}

TEST(ParallelStudies, CycleStudyByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {0, 3};
    opt.runsPerConfig = 2;
    auto study = [&] { return core::runCycleStudy(opt); };
    EXPECT_EQ(csvWithThreads(1, study), csvWithThreads(4, study));
}
