#include "harness/session.hh"

#include <cstdio>

#include "isa/assembler.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "support/logging.hh"

namespace pca::harness
{

using isa::Assembler;
using isa::Reg;

namespace
{

/**
 * Harness code sizes per gcc optimization level (O0..O3). The
 * optimizable code is only the measurement scaffolding (the
 * benchmark is inline assembly), so levels differ in frame setup and
 * spill code *outside* the measured window — which is why the paper's
 * ANOVA finds the optimization level insignificant for instruction
 * error, while the resulting layout shift changes cycle counts.
 */
constexpr int prologueWork[4] = {26, 17, 12, 9};
constexpr int betweenWork[4] = {9, 6, 4, 3};
constexpr int epilogueWork[4] = {6, 4, 3, 2};

/**
 * Mark a harness phase in the virtual-time trace. The marker host-ops
 * are only emitted while tracing is enabled, so with tracing off the
 * measurement program is bit-for-bit the same. (Emit-time gate: arm
 * the tracer before building sessions.)
 */
void
tracePhase(isa::Assembler &a, const char *name, bool begin)
{
    if (!obs::traceEnabled())
        return;
    std::string n(name);
    a.host([n, begin](isa::CpuContext &ctx) {
        if (begin)
            obs::tracer().begin(n, "harness", ctx.cycles());
        else
            obs::tracer().end(ctx.cycles());
    });
}

MachineConfig
toMachineConfig(const HarnessConfig &cfg)
{
    MachineConfig mc;
    mc.processor = cfg.processor;
    mc.iface = cfg.iface;
    mc.seed = cfg.seed;
    mc.interruptsEnabled = cfg.interruptsEnabled;
    mc.ioInterrupts = cfg.ioInterrupts;
    mc.preemptProb = cfg.preemptProb;
    mc.fastForward = cfg.fastForward;
    mc.decodeCache = cfg.decodeCache;
    mc.faults = cfg.faults;
    mc.profile = cfg.profile;
    mc.runInstrBudget = cfg.runInstrBudget;
    mc.runCycleBudget = cfg.runCycleBudget;
    return mc;
}

/** Charge @p m's pattern overhead to its SPC (once per measurement). */
void
countPatternOverhead(const Measurement &m)
{
    if (m.attribution.patternOverhead > 0)
        PCA_SPC_ADD(PatternOverheadInstrs,
                    static_cast<Count>(m.attribution.patternOverhead));
}

/**
 * The full cache key. The machine part never contains '|', so two
 * different part pairs never join to one key.
 */
std::string
joinKey(const ProgramCache::KeyParts &k)
{
    return k.machine + '|' + k.program;
}

} // namespace

HarnessSession::HarnessSession(const HarnessConfig &cfg,
                               const MicroBenchmark &bench,
                               std::unique_ptr<Machine> booted)
    : cfg(cfg), machine(std::move(booted))
{
    detail::validateHarnessConfig(cfg);
    const bool recycled = machine != nullptr;
    if (recycled) {
        pca_assert(machine->config().processor == cfg.processor &&
                   machine->iface() == cfg.iface);
        PCA_SPC_INC(MachineReuses);
    } else {
        machine = std::make_unique<Machine>(toMachineConfig(cfg));
    }

    ApiConfig acfg;
    acfg.events = counterEvents(cfg);
    acfg.pl = toPlMask(cfg.mode);
    acfg.tsc = cfg.tsc;
    auto api = makeCounterApi(*machine, acfg);

    Assembler a("main");

    // Harness scaffolding (outside the measured window). The pattern
    // calls below are straight-line and execute exactly once per
    // run, so counting them here (emit time) equals counting them at
    // run time without perturbing the emitted program.
    a.push(Reg::Ebp);
    a.work(prologueWork[cfg.optLevel]);
    tracePhase(a, "setup", true);
    api->emitSetup(a);
    tracePhase(a, "setup", false);
    PCA_SPC_INC(PatternCallsSetup);
    a.work(betweenWork[cfg.optLevel]);

    auto emitStart = [&] {
        api->emitStart(a);
        PCA_SPC_INC(PatternCallsStart);
    };
    auto emitRead = [&](CaptureSink *sink) {
        tracePhase(a, "read", true);
        api->emitRead(a, sink);
        tracePhase(a, "read", false);
        PCA_SPC_INC(PatternCallsRead);
    };
    auto emitStop = [&](CaptureSink *sink) {
        tracePhase(a, "stop+read", true);
        api->emitStopAndRead(a, sink);
        tracePhase(a, "stop+read", false);
        PCA_SPC_INC(PatternCallsStop);
    };
    auto emitBench = [&] {
        tracePhase(a, "bench", true);
        bench.emit(a);
        tracePhase(a, "bench", false);
    };

    switch (cfg.pattern) {
      case AccessPattern::StartRead:
        emitStart();
        emitBench();
        emitRead(&s1);
        break;
      case AccessPattern::StartStop:
        emitStart();
        emitBench();
        emitStop(&s1);
        break;
      case AccessPattern::ReadRead:
        emitStart();
        emitRead(&s0);
        emitBench();
        emitRead(&s1);
        break;
      case AccessPattern::ReadStop:
        emitStart();
        emitRead(&s0);
        emitBench();
        emitStop(&s1);
        break;
    }

    a.work(epilogueWork[cfg.optLevel]);
    a.pop(Reg::Ebp);
    a.halt();

    // Only "main" is this session's: the kernel image, the modules
    // and the libraries are the machine's. Their host ops capture the
    // machine's own objects, and main's capture this session's sinks
    // and the machine's PMU, so nothing needs rerouting on reuse.
    if (recycled) {
        machine->replaceUserBlock(a.take());
    } else {
        machine->addUserBlock(a.take());
        machine->finalize();
    }

    // The analytical ground truth exists only for the benchmark's
    // retired user-mode instructions.
    if (cfg.primaryEvent == cpu::EventType::InstrRetired &&
        cfg.mode != CountingMode::Kernel) {
        expected = bench.expectedInstructions();
    }

    // Replay needs the interrupt schedule to be the seed's only way
    // into a run (DESIGN §6.13): a fault plan draws from seeded
    // streams, and a profiler accumulates across runs. The reference
    // mode measures every run in full by definition.
    if (cfg.faults.enabled())
        replayDecline = obs::Spc::ReplayRejectFaults;
    else if (cfg.profile.enabled)
        replayDecline = obs::Spc::ReplayRejectProfile;
    else if (!cfg.fastForward || !cfg.decodeCache)
        replayDecline = obs::Spc::ReplayRejectReference;
}

bool
HarnessSession::replayAllowed() const
{
    // The tracer is checked per run: it records per-run events, and
    // it may be armed after the session was built.
    obs::Spc why = replayDecline;
    if (why == obs::Spc::NumSpcs && obs::traceEnabled())
        why = obs::Spc::ReplayRejectTrace;
    if (why == obs::Spc::NumSpcs)
        return true;
    obs::spcInc(why);
    return false;
}

Measurement
HarnessSession::run(std::uint64_t seed)
{
    return tryRun(seed).value();
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed)
{
    return tryRun(seed, nullptr);
}

StatusOr<Measurement>
HarnessSession::tryRun(std::uint64_t seed, RetryBudget *budget)
{
    // Bounded retry-and-discard: a failed attempt's machine state is
    // discarded wholesale (the next attempt reboots), and only
    // transient faults earn another attempt. Attempt a > 0 derives
    // its seed from the run seed and the attempt index, so the retry
    // schedule is reproducible and two retries never replay the same
    // interrupt phases. Each retry charges the policy's exponential
    // backoff in virtual time (accounted, never slept) and, when a
    // budget is supplied, one retry token; a denied token ends the
    // run immediately — the quarantine path.
    const RetryPolicy &policy = cfg.faults.retry;
    const int max_retries = policy.retries < 0 ? 0 : policy.retries;
    Status last;
    int spent = 0;
    bool budget_denied = false;
    for (int a = 0; a <= max_retries; ++a) {
        const std::uint64_t attempt_seed = a == 0
            ? seed
            : mixSeed(seed, 0xb0ffULL + static_cast<std::uint64_t>(a));
        machine->reboot(attempt_seed);
        s0 = CaptureSink{};
        s1 = CaptureSink{};
        ++runs;

        // Seed-invariant run replay, on attempt 0 only. A seed whose
        // first interrupt is due strictly after the recorded run's
        // end cycle cannot reach the run (DESIGN §6.13).
        const bool replayable = a == 0 && replayAllowed();
        const Cycles horizon =
            machine->kernel().interrupts().nextInterruptCycle();
        if (replayable) {
            if (recorded &&
                (!cfg.interruptsEnabled || horizon > recordedEnd)) {
                PCA_SPC_INC(RunsExecuted);
                PCA_SPC_INC(RunReplays);
                countPatternOverhead(*recorded);
                return *recorded;
            }
            if (measuredEligible)
                PCA_SPC_INC(ReplayRejectIrq);
            measuredEligible = true;
        }

        const Cycles t0 = machine->core().cycles();
        StatusOr<cpu::RunResult> r = machine->tryRun("main");
        if (!r.ok()) {
            last = r.status();
            if (!last.transient())
                return last;
            if (a == max_retries) // attempts exhausted; no retry
                break;
            if (budget && !budget->tryTake()) {
                budget_denied = true;
                PCA_SPC_INC(RetryBudgetExhausted);
                break;
            }
            ++spent;
            PCA_SPC_INC(SessionRetries);
            const Cycles wait = policy.backoffFor(a + 1);
            backoff += wait;
            PCA_SPC_ADD(RetryBackoffCycles, wait);
            if (obs::traceEnabled())
                obs::tracer().complete(
                    "retry:" + std::string(
                                   statusCodeName(last.code())),
                    "harness", t0, machine->core().cycles() - t0);
            continue;
        }

        Measurement m;
        m.run = *r;
        m.c0 = s0.primary();
        m.c1 = s1.primary();
        m.tsc0 = s0.tsc;
        m.tsc1 = s1.tsc;
        m.c0All = s0.values;
        m.c1All = s1.values;
        m.expected = expected;
        m.attribution =
            obs::attributeError(s0.attr, s1.attr, m.expected);
        countPatternOverhead(m);
        // Record only a run the interrupt schedule never reached: no
        // interrupt, and its own first one due after it ended, so no
        // horizon bounded a NOP batch or a fast-forward skip either.
        const Cycles end = machine->core().cycles();
        if (replayable && !recorded && m.run.interrupts == 0 &&
            (!cfg.interruptsEnabled || horizon > end)) {
            recorded = m;
            recordedEnd = end;
        }
        return m;
    }
    // The message is part of the degraded-row note in study CSVs:
    // keep it a pure function of (policy, outcome), never timing.
    if (budget_denied)
        return Status(last.code(),
                      last.message() +
                          " (retry budget exhausted after " +
                          std::to_string(spent) + " retries)");
    return Status(last.code(),
                  last.message() + " (after " +
                      std::to_string(max_retries) + " retries)");
}

ProgramCache::ProgramCache(std::size_t capacity)
    : cap(capacity == 0 ? 1 : capacity)
{
}

ProgramCache::KeyParts
ProgramCache::keyParts(const HarnessConfig &cfg,
                       const MicroBenchmark &bench)
{
    KeyParts k;
    std::string &m = k.machine;
    m.reserve(96);
    m += cpu::processorCode(cfg.processor);
    m += '/';
    m += interfaceCode(cfg.iface);
    m += cfg.interruptsEnabled ? "/int" : "/noint";
    m += cfg.ioInterrupts ? "/io" : "/noio";
    // Exact bit pattern, not a rounded decimal: two preemption
    // probabilities must never alias to one cache entry.
    char prob[40];
    std::snprintf(prob, sizeof prob, "/p%a", cfg.preemptProb);
    m += prob;
    m += cfg.fastForward ? "/ff" : "/noff";
    m += cfg.decodeCache ? "/dc" : "/nodc";
    // Sessions built under different fault plans simulate different
    // machines; they must never alias (the seed stays excluded — it
    // varies per run, not per program).
    m += '/';
    m += cfg.faults.fingerprint();
    // Run budgets change outcomes (a budgeted run can deadline);
    // appended only when set so unbudgeted keys stay as before.
    if (cfg.runInstrBudget != 0 || cfg.runCycleBudget != 0)
        m += "/wd" + std::to_string(cfg.runInstrBudget) + ":" +
             std::to_string(cfg.runCycleBudget);
    // A profiled machine carries per-machine profiler state; it must
    // never alias an unprofiled one (or one with another skid model).
    m += "/prof:";
    m += cfg.profile.fingerprint();

    std::string &p = k.program;
    p.reserve(64);
    p += patternName(cfg.pattern);
    p += '/';
    p += countingModeName(cfg.mode);
    p += "/O" + std::to_string(cfg.optLevel);
    p += "/e" + std::to_string(static_cast<int>(cfg.primaryEvent));
    for (cpu::EventType ev : cfg.extraEvents)
        p += "," + std::to_string(static_cast<int>(ev));
    p += cfg.tsc ? "/tsc" : "/notsc";
    p += '/';
    p += bench.cacheKey();
    return k;
}

std::string
ProgramCache::key(const HarnessConfig &cfg,
                  const MicroBenchmark &bench)
{
    return joinKey(keyParts(cfg, bench));
}

HarnessSession &
ProgramCache::session(const HarnessConfig &cfg,
                      const MicroBenchmark &bench)
{
    KeyParts parts = keyParts(cfg, bench);
    std::unique_ptr<Machine> machine;
    auto it = index.find(parts.machine);
    if (it != index.end()) {
        if (it->second->programKey == parts.program) {
            ++hitCount;
            PCA_SPC_INC(ProgramCacheHits);
            entries.splice(entries.begin(), entries, it->second);
            return *entries.front().session;
        }
        // Same machine, another program: the new session takes over
        // the booted machine and the entry.
        machine = it->second->session->releaseMachine();
        entries.erase(it->second);
        index.erase(it);
    } else if (entries.size() >= cap) {
        // Evict before booting, so a miss never holds cap + 1
        // machines. The victim's machine cannot fit: the index would
        // have found it.
        PCA_SPC_INC(MachineReuseRejectConfig);
        index.erase(entries.back().machineKey);
        entries.pop_back();
    }

    ++missCount;
    PCA_SPC_INC(ProgramCacheMisses);
    auto session =
        std::make_unique<HarnessSession>(cfg, bench, std::move(machine));
    entries.push_front({std::move(parts.machine),
                        std::move(parts.program), std::move(session)});
    index[entries.front().machineKey] = entries.begin();
    return *entries.front().session;
}

std::vector<StatusOr<Measurement>>
measurePoint(ProgramCache &cache, const HarnessConfig &cfg,
             const MicroBenchmark &bench, int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             std::optional<long> retry_budget)
{
    pca_assert(runs >= 1);
    RetryBudget budget(retry_budget
                           ? *retry_budget
                           : cfg.faults.retry.perPointBudget);
    std::vector<StatusOr<Measurement>> out;
    out.reserve(static_cast<std::size_t>(runs));
    // Look the session up per run, not once per point: the lookup is
    // a hash probe, and it makes the hit/miss counters measure every
    // program reuse (runs 2..n of a point are cache hits).
    for (int r = 0; r < runs; ++r)
        out.push_back(cache.session(cfg, bench)
                          .tryRun(seed_for(r), &budget));
    if (budget.limited() && budget.denied() > 0)
        PCA_SPC_INC(PointsQuarantined);
    return out;
}

} // namespace pca::harness
