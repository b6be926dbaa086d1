/**
 * @file
 * Software performance counters (SPCs) for the simulator itself,
 * modelled after Open MPI's SPC design: a fixed registry of named
 * counters instrumenting libpca's own operation (interrupts injected,
 * preemptions, kernel instructions attributed to the measured
 * thread, pattern-call overhead, runs, boots). Increments are
 * branch-on-enabled and atomic; with every counter disabled (the
 * default) the instrumentation reduces to one load + test.
 */

#ifndef PCA_OBS_SPC_HH
#define PCA_OBS_SPC_HH

#include <atomic>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "support/types.hh"

namespace pca::obs
{

/** The self-instrumentation counters libpca maintains. */
enum class Spc : std::uint8_t
{
    MachineBoots,       //!< simulated machines constructed
    RunsExecuted,       //!< Machine::run invocations
    InterruptsTimer,    //!< timer interrupts delivered to a core
    InterruptsIo,       //!< I/O interrupts delivered to a core
    InterruptsPmi,      //!< counter-overflow interrupts delivered
    Preemptions,        //!< timer ticks that preempted the thread
    ContextSwitches,    //!< switch-out/in pairs of the measured thread
    KernelInstrs,       //!< kernel-mode instructions retired
    PatternCallsSetup,  //!< API setup calls emitted (open/init/program)
    PatternCallsStart,  //!< API start calls emitted
    PatternCallsRead,   //!< API read calls emitted
    PatternCallsStop,   //!< API stop(+read) calls emitted
    PatternOverheadInstrs, //!< measured-window overhead instructions
    FastForwardIters,   //!< loop iterations applied in bulk
    MachineReboots,     //!< session reuses (reboot without re-assembly)
    ProgramCacheHits,   //!< assembled-program cache hits
    ProgramCacheMisses, //!< assembled-program cache misses (builds)
    FaultsInjected,     //!< faults the FaultInjector fired
    SessionRetries,     //!< transient-fault retries spent by sessions
    DegradedPoints,     //!< study rows recorded as degraded
    ProfileSamples,     //!< sampling-profiler samples latched
    ProfileSkidInstrs,  //!< user instructions traversed as skid
    DecodedEscapeCallret,  //!< decoded-engine exits at call/ret
    DecodedEscapeTimeread, //!< decoded-engine exits at rdtsc/rdpmc
    DecodedEscapeSyscall,  //!< decoded-engine exits at syscall/iret
    DecodedEscapeOther,    //!< decoded-engine exits at hostop/halt/...
    SuperblocksFormed,     //!< superblocks (traces) built
    SuperblockExits,       //!< superblock executions ended (any reason)
    ParallelWorkerErrors,  //!< worker errors captured by parallelFor
    DeadlineExceededRuns,  //!< runs killed by the watchdog budget
    RetryBackoffCycles,    //!< virtual backoff charged before retries
    RetryBudgetExhausted,  //!< retries denied by an exhausted budget
    PointsQuarantined,     //!< points that burned their retry budget
    CheckpointPointsWritten, //!< points recorded to a checkpoint
    CheckpointPointsResumed, //!< points skipped via a checkpoint
    ResidentMemPasses,       //!< memory-resident passes executed in bulk
    ResidentMemBailouts,     //!< resident passes abandoned (address drift)
    ChildTraceLinks,         //!< child-trace elements executed
    InlinedCalls,            //!< call-inlined trace elements executed
    SuperblockBailoutReplays, //!< resident passes rolled back + replayed
    FfRejectInstr,     //!< loop back-edges refused: instr delta unstable
    FfRejectCycles,    //!< loop back-edges refused: cycle delta unstable
    FfRejectEvents,    //!< loop back-edges refused: event delta unstable
    FfRejectMultireg,  //!< loop back-edges refused: >1 register changes
    FfRejectIdiom,     //!< loop back-edges refused: not a counted loop
    FfRejectIrq,       //!< loop back-edges refused: interrupt too close
    FfPeriodicIters,   //!< loop iterations applied in bulk with period >= 2
    NumSpcs,
};

constexpr std::size_t numSpcs = static_cast<std::size_t>(Spc::NumSpcs);
static_assert(numSpcs <= 64, "spcEnabledMask has one bit per counter");

/** Canonical counter name ("interrupts_timer", ...). */
const char *spcName(Spc c);

/** All counters, in enum order. */
const std::vector<Spc> &allSpcs();

namespace detail
{

/** One bit per counter; increments are dropped while the bit is 0. */
extern std::atomic<std::uint64_t> spcEnabledMask;

extern std::atomic<Count> spcValues[numSpcs];

} // namespace detail

/** Is @p c currently enabled? */
inline bool
spcEnabled(Spc c)
{
    return (detail::spcEnabledMask.load(std::memory_order_relaxed) &
            (1ULL << static_cast<unsigned>(c))) != 0;
}

/** Are any counters enabled? (One relaxed load: the hot-path gate.) */
inline bool
spcAnyEnabled()
{
    return detail::spcEnabledMask.load(std::memory_order_relaxed) != 0;
}

/** Add @p n to counter @p c if it is enabled. */
inline void
spcAdd(Spc c, Count n)
{
    if (spcEnabled(c))
        detail::spcValues[static_cast<std::size_t>(c)].fetch_add(
            n, std::memory_order_relaxed);
}

/** Increment counter @p c by one if it is enabled. */
inline void
spcInc(Spc c)
{
    spcAdd(c, 1);
}

/** Current value of @p c (0 while it has never been enabled). */
Count spcValue(Spc c);

/**
 * Enable counters per an OMPI-style attach spec: "all", "none", or a
 * comma-separated list of counter names. Unknown names warn and are
 * skipped. Returns the number of counters now enabled.
 */
int spcAttach(const std::string &spec);

/** Disable every counter and zero all values. */
void spcReset();

/**
 * Write a dump of all enabled counters (name and value, one per
 * line) — the analogue of OMPI's mpi_spc_dump_enabled finalize dump.
 */
void spcDump(std::ostream &os);

} // namespace pca::obs

/**
 * Increment macros for instrumentation sites. They compile to a
 * relaxed load + branch when the counter is disabled, so they are
 * safe on interpreter hot paths.
 */
#define PCA_SPC_INC(counter) ::pca::obs::spcInc(::pca::obs::Spc::counter)
#define PCA_SPC_ADD(counter, n) \
    ::pca::obs::spcAdd(::pca::obs::Spc::counter, (n))

#endif // PCA_OBS_SPC_HH
