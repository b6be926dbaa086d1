/**
 * @file
 * Reusable measurement sessions and the cross-run program cache.
 *
 * MeasurementHarness::measure() assembles the measurement program,
 * boots a machine, runs once, and throws everything away. The study
 * sweeps run the *same* configuration runs_per_point times back to
 * back, differing only in seed — re-invoking the assembler and
 * linker each time buys nothing. A HarnessSession assembles and
 * links once, then replays runs by rebooting the machine
 * (Machine::reboot: exact power-on state, re-seeded stochastics), so
 * every run after the first skips kernel code emission, harness
 * assembly, and linking. A session run is result-identical to a
 * fresh MeasurementHarness::measure() with the same seed (asserted
 * by tests/test_parallel.cc); caching is therefore invisible in
 * study output.
 *
 * A session goes one step further for runs the seed cannot reach.
 * The seed feeds only the interrupt schedule, the scheduler RNG read
 * on the tick path, and the fault injector, so a run that takes no
 * interrupt is one pure function of (machine, program) for every
 * seed. The session records the first such run and answers any later
 * run whose seed schedules no interrupt up to the recorded run's end
 * with it (seed-invariant run replay, DESIGN §6.13); a replayed run is
 * result-identical to a full one.
 *
 * One level up, the booted machine outlives its program: like the
 * paper's two patched kernels, which ran thousands of measurement
 * processes each, a machine is booted once per machine configuration
 * and a new session only swaps in its own user program
 * (Machine::replaceUserBlock). ProgramCache holds at most one
 * session per machine configuration and builds a new program of that
 * configuration on the cached session's machine. Neither
 * class is thread-safe: under the parallel study engine each worker
 * owns a private cache (points are partitioned, never split across
 * workers).
 */

#ifndef PCA_HARNESS_SESSION_HH
#define PCA_HARNESS_SESSION_HH

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "harness/harness.hh"
#include "obs/spc.hh"
#include "support/retry.hh"

namespace pca::harness
{

/**
 * One assembled measurement program loaded on one (rebootable)
 * machine. Build once, run many: each run() reboots the machine with
 * the given seed and executes the program from the top — setup,
 * pattern calls, benchmark, teardown — exactly as a fresh harness
 * would. The machine is either booted for the session or recycled
 * from an earlier session of the same machine configuration, which
 * changes no result. Sessions are pinned to one address (the emitted
 * host ops capture pointers into the session), hence non-copyable
 * and non-movable.
 */
class HarnessSession
{
  public:
    /**
     * Assemble the program for (@p cfg, @p bench) and load it on
     * @p machine, or on a freshly booted machine when it is null. A
     * given machine must come from releaseMachine() of a session
     * whose config has the same ProgramCache::keyParts().machine:
     * only the user program "main" is replaced on it.
     */
    HarnessSession(const HarnessConfig &cfg,
                   const MicroBenchmark &bench,
                   std::unique_ptr<Machine> machine = nullptr);

    HarnessSession(const HarnessSession &) = delete;
    HarnessSession &operator=(const HarnessSession &) = delete;

    /**
     * Reboot with @p seed and run the measurement once, or return
     * the recorded run when the seed cannot reach it (see tryRun).
     */
    Measurement run(std::uint64_t seed);

    /**
     * Like run(), but failures surface as a Status. Transient
     * failures (Busy, Unavailable, DeadlineExceeded — injected
     * EBUSY, flaky reads, watchdog-killed hangs) are retried up to
     * config().faults.retry.retries times, each attempt rebooting
     * with a fresh seed derived from @p seed — nanoBench's
     * retry-and-discard policy. Retries feed the session_retries SPC
     * and charge the policy's exponential backoff in virtual time
     * (retry_backoff_cycles SPC + backoffCycles(); never a sleep,
     * never simulated-machine cycles, so outcomes stay a pure
     * function of (config, benchmark, seed)). Non-transient failures
     * return immediately.
     *
     * Seed-invariant run replay: the session records the first
     * attempt-0 run that came back ok without an interrupt (and
     * whose own first interrupt lay beyond its end). A later
     * attempt-0 run still reboots with its seed, then returns the
     * recorded Measurement when interrupts are off or the seed's
     * first interrupt is due strictly after the recorded end cycle;
     * otherwise it runs in full. Replay is declined outright — each
     * declined run counted in its replay_reject_* SPC — under a fault
     * plan, a configured profiler, an armed tracer (checked per run),
     * or with fast-forward or the decode cache off (the reference
     * mode). Retries never record or replay.
     */
    StatusOr<Measurement> tryRun(std::uint64_t seed);

    /**
     * tryRun with a retry budget: each retry must claim a token from
     * @p budget (null = unlimited) before proceeding; a denied claim
     * fails the run immediately with a "retry budget exhausted"
     * status — the quarantine path for points that burned their
     * allowance.
     */
    StatusOr<Measurement> tryRun(std::uint64_t seed,
                                 RetryBudget *budget);

    const HarnessConfig &config() const { return cfg; }

    /** Number of run attempts so far, retries and replays included. */
    std::uint64_t runCount() const { return runs; }

    /** Total virtual backoff charged by retries so far. */
    Cycles backoffCycles() const { return backoff; }

    /**
     * Hand the booted machine on to the next session of the same
     * machine configuration. This session cannot run afterwards, and
     * the machine must not run before a new session loads its
     * program (the old one writes into this session's sinks).
     */
    std::unique_ptr<Machine> releaseMachine()
    {
        return std::move(machine);
    }

  private:
    /**
     * May this attempt-0 run record or replay? Counts the declined
     * run in the reason's SPC when not.
     */
    bool replayAllowed() const;

    HarnessConfig cfg;
    std::unique_ptr<Machine> machine;
    CaptureSink s0, s1;
    Count expected = 0;
    std::uint64_t runs = 0;
    Cycles backoff = 0;

    /**
     * Why every run of this session declines replay for its config
     * (faults, profile, reference); NumSpcs when only the tracer,
     * checked per run, can decline it.
     */
    obs::Spc replayDecline = obs::Spc::NumSpcs;
    /** The recorded interrupt-free run, and the cycle it ended at. */
    std::optional<Measurement> recorded;
    Cycles recordedEnd = 0;
    /** An eligible run has been measured in full (replay_reject_irq). */
    bool measuredEligible = false;
};

/**
 * LRU cache of HarnessSessions, one per machine configuration: an
 * entry is keyed by ProgramCache::keyParts().machine and holds the
 * session of the last program (keyParts().program) run on that
 * machine. A lookup hits when both parts match. A miss whose machine
 * part is cached builds the new session on that entry's booted
 * machine and replaces the entry; any other miss boots a machine,
 * evicting the least recently used entry first when the cache is at
 * capacity. Capacity therefore bounds machine configurations (and
 * live simulated machines), not programs, and a sweep boots each
 * machine configuration once as long as it revisits at most
 * capacity of them. Recycling and eviction cannot change results
 * because cached, recycled and freshly built sessions are
 * result-identical. Hits and misses feed the program_cache_hits /
 * program_cache_misses SPC counters; machine_reuses counts misses
 * built on a cached machine, machine_reuse_reject_config evictions
 * at capacity.
 */
class ProgramCache
{
  public:
    explicit ProgramCache(std::size_t capacity = 32);

    /**
     * The session for (cfg, bench), building it on a miss. The
     * reference stays valid until the next session() call (which may
     * replace or evict it).
     */
    HarnessSession &session(const HarnessConfig &cfg,
                            const MicroBenchmark &bench);

    /** A cache key split by what each part shapes. */
    struct KeyParts
    {
        /**
         * Every field the booted machine depends on (what
         * toMachineConfig reads, bar the seed): sessions with equal
         * machine parts can share one machine.
         */
        std::string machine;
        /** Pattern, mode, opt level, events, tsc and benchmark. */
        std::string program;
    };

    /** Both parts of the cache key for (cfg, bench). */
    static KeyParts keyParts(const HarnessConfig &cfg,
                             const MicroBenchmark &bench);

    /** Cache key for (cfg, bench): the two parts joined. */
    static std::string key(const HarnessConfig &cfg,
                           const MicroBenchmark &bench);

    std::size_t size() const { return entries.size(); }
    std::uint64_t hits() const { return hitCount; }
    std::uint64_t misses() const { return missCount; }

  private:
    struct Entry
    {
        std::string machineKey;
        std::string programKey;
        std::unique_ptr<HarnessSession> session;
    };

    std::size_t cap;
    std::list<Entry> entries; //!< most recently used first
    /** Machine part of the key -> its (only) entry. */
    std::unordered_map<std::string, std::list<Entry>::iterator> index;
    std::uint64_t hitCount = 0;
    std::uint64_t missCount = 0;
};

/**
 * The shared per-point measurement loop: @p runs seeded runs of
 * @p bench at @p cfg through @p cache, reusing one assembled
 * program. seed_for(r) supplies run r's machine seed (studies and
 * bench drivers differ only in that derivation). Results are in run
 * order; a run that still fails after the session's transient-fault
 * retries occupies its slot as an error Status (with an inert fault
 * plan every slot is ok()).
 *
 * All runs of the point share one RetryBudget limited to
 * @p retry_budget when given, else to
 * cfg.faults.retry.perPointBudget (the studies pass
 * RetryPolicy::effectivePointBudget, which also folds in the
 * deterministic per-study share). A point that exhausts its budget
 * is quarantined — counted in points_quarantined, its remaining
 * failed runs degrade without retrying — but never sinks the sweep.
 */
std::vector<StatusOr<Measurement>>
measurePoint(ProgramCache &cache, const HarnessConfig &cfg,
             const MicroBenchmark &bench, int runs,
             const std::function<std::uint64_t(int)> &seed_for,
             std::optional<long> retry_budget = std::nullopt);

} // namespace pca::harness

#endif // PCA_HARNESS_SESSION_HH
