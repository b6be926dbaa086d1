/**
 * @file
 * The simulated processor core: an interpreter for the pca ISA that
 * drives the PMU, front-end, caches and branch predictor, takes
 * syscall traps and external interrupts, and fast-forwards
 * steady-state counted loops.
 */

#ifndef PCA_CPU_CORE_HH
#define PCA_CPU_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "cpu/cache.hh"
#include "cpu/event.hh"
#include "cpu/frontend.hh"
#include "cpu/microarch.hh"
#include "cpu/pmu.hh"
#include "cpu/predictor.hh"
#include "cpu/trace.hh"
#include "isa/context.hh"
#include "isa/program.hh"
#include "obs/spc.hh"
#include "support/types.hh"

namespace pca::obs
{
class Profiler;
} // namespace pca::obs

namespace pca::cpu
{

/**
 * Interface the kernel implements to inject hardware interrupts.
 * @see pca::kernel::InterruptController
 */
class InterruptClient
{
  public:
    virtual ~InterruptClient() = default;

    /** Cycle at which the next interrupt is due (max if none). */
    virtual Cycles nextInterruptCycle() const = 0;

    /**
     * Called when the core is willing to take an interrupt at cycle
     * @p now. Returns the vector to deliver, or -1 for none. The
     * controller advances its own schedule on delivery.
     */
    virtual int pollInterrupt(Cycles now) = 0;
};

/** Aggregate results of one Core::run. */
struct RunResult
{
    Count userInstr = 0;
    Count kernelInstr = 0;
    Cycles cycles = 0;
    Count interrupts = 0;
    Count fastForwardedIters = 0; //!< iterations applied in bulk
};

/** One loop iteration's user-mode cost: retires, cycles, raw events. */
struct IterCost
{
    Count instr = 0;
    Cycles cycles = 0;
    std::array<Count, numEvents> events{};

    bool operator==(const IterCost &) const = default;
};

/**
 * The last 2 * maxPeriod iteration costs of one loop. A steady state
 * of period p shows as the newest p costs repeating the p before
 * them: the loop fast-forward extrapolates whole periods of it.
 * Storage grows only as far as the loop needs it: a period-1 loop
 * is confirmed with two costs held.
 */
class CostRing
{
  public:
    static constexpr int maxPeriod = 8;
    static constexpr std::size_t capacity = 2 * maxPeriod;

    void clear() { len = 0; }

    void
    push(const IterCost &c)
    {
        // Until the storage is full, next == slots.size().
        if (next == slots.size())
            slots.push_back(c);
        else
            slots[next] = c;
        next = (next + 1) % capacity;
        len = std::min(len + 1, capacity);
    }

    int size() const { return static_cast<int>(len); }

    /** The cost @p i iterations before the newest (0 = newest). */
    const IterCost &
    ago(int i) const
    {
        return slots[(next + capacity - 1 - static_cast<std::size_t>(i)) %
                     capacity];
    }

    /** Smallest period p <= maxPeriod the ring confirms; 0 if none. */
    int
    period() const
    {
        for (int p = 1; 2 * p <= size(); ++p) {
            int i = 0;
            while (i < p && ago(i) == ago(i + p))
                ++i;
            if (i == p)
                return p;
        }
        return 0;
    }

    /** Total cost of the newest @p p iterations. */
    IterCost
    sum(int p) const
    {
        IterCost s;
        for (int i = 0; i < p; ++i) {
            const IterCost &c = ago(i);
            s.instr += c.instr;
            s.cycles += c.cycles;
            for (std::size_t e = 0; e < numEvents; ++e)
                s.events[e] += c.events[e];
        }
        return s;
    }

  private:
    std::vector<IterCost> slots;
    std::size_t len = 0;
    std::size_t next = 0; //!< slot the next cost is written to
};

/**
 * One simulated core.
 *
 * Not reusable across programs: create a fresh Core (or call reset())
 * per measurement run, mirroring the paper's process-per-measurement
 * methodology.
 */
class Core : public isa::CpuContext
{
  public:
    explicit Core(const MicroArch &arch);

    /** The program to execute (must stay alive during run()). */
    void setProgram(const isa::Program *prog);

    /** Kernel entry points (set by the Machine after linking). */
    void setSyscallEntry(isa::CodePtr entry) { syscallEntry = entry; }
    void setInterruptEntry(isa::CodePtr entry)
    {
        interruptEntry = entry;
    }

    /** Attach the interrupt source (may be null: no interrupts). */
    void setInterruptClient(InterruptClient *client)
    {
        intClient = client;
    }

    /**
     * Enable/disable loop fast-forwarding (default on). Disabling
     * forces pure interpretation; architectural and PMU results are
     * identical either way (asserted by tests, measured by the
     * ablation bench).
     */
    void setFastForwardEnabled(bool on) { ffEnabled = on; }

    /**
     * Enable/disable the pre-decoded basic-block engine (default
     * on). When enabled, straight-line runs of decoded instructions
     * execute in one dispatch with batched retire accounting; when
     * disabled (or whenever PMU sampling is armed), every
     * instruction goes through the legacy per-step interpreter.
     * Architectural state, PMU counts, interrupt delivery points and
     * fault schedules are identical either way (asserted by tests,
     * measured by the ablation bench).
     */
    void setDecodeCacheEnabled(bool on) { decodeOn = on; }

    /**
     * Enable/disable the superblock/trace tier (default on; only
     * active while the decode cache is on). When enabled, hot loop
     * heads are chained into superblocks executed with threaded
     * dispatch, and the foldable escape classes (call/ret,
     * time-reads, MSR access, syscall entry/exit) execute inside the
     * decoded engine instead of falling back to the legacy
     * interpreter. Results are identical either way (asserted by
     * tests/test_trace.cc); like the decode cache, the tier disarms
     * itself under PMU sampling or an attached profiler.
     */
    void setTraceTierEnabled(bool on) { traceOn = on; }

    /**
     * Watchdog budgets for run(): abort with
     * StatusError(DeadlineExceeded) once the run has retired more
     * than @p instrs instructions or accumulated more than
     * @p cycles virtual cycles (0 = that budget is unlimited). The
     * check sits in run()'s outer dispatch loop, so every execution
     * tier trips it within one dispatch chunk of the budget —
     * including a handler wedged in kernel mode, where interrupts
     * are never polled and nothing else could regain control.
     * Persists across reset(): like the tier toggles, it models the
     * harness, not machine state.
     */
    void
    setRunDeadline(Count instrs, Cycles cycles)
    {
        deadlineInstrs = instrs;
        deadlineCycles = cycles;
    }

    /**
     * Attach the sampling profiler (null detaches, the default).
     * While attached the core reports every retired user instruction
     * to it, which requires exact per-retire interpretation: the
     * decoded-block engine and loop fast-forward are bypassed, both
     * of which are result-invisible (asserted by tests), so runs
     * with and without a profiler retire identical instruction
     * streams — zero observer effect by construction.
     */
    void setProfiler(obs::Profiler *p) { prof = p; }

    /**
     * Addresses of the return sites on the user call stack,
     * outermost first (for the profiler's collapsed stacks).
     */
    std::vector<Addr> callChainAddrs() const;

    /** CR4.PCE: whether RDPMC is legal in user mode. */
    void allowUserRdpmc(bool allow) { userRdpmcOk = allow; }
    /** CR4.TSD is off by default: RDTSC legal in user mode. */
    void allowUserRdtsc(bool allow) { userRdtscOk = allow; }

    /**
     * Execute from @p entry until a Halt instruction retires.
     *
     * @param entry first instruction
     * @param max_instr runaway guard; panics when exceeded
     */
    RunResult run(isa::CodePtr entry,
                  Count max_instr = 500'000'000ULL);

    Pmu &pmu() { return pmuUnit; }
    const Pmu &pmu() const { return pmuUnit; }
    const MicroArch &arch() const { return archRef; }

    /** Raw occurrence totals per event and mode (ground truth). */
    Count rawEvents(EventType ev, Mode m) const;

    /** Total cycles attributed to @p m so far. */
    Cycles modeCycles(Mode m) const;

    /** Vector of the interrupt currently being serviced (-1 none). */
    int currentVector() const { return activeVector; }

    /** PMI vector number (counter overflow). */
    static constexpr int pmiVector = 2;

    /** Address of the instruction the last interrupt preempted. */
    Addr lastInterruptedAddr() const { return interruptedAddr; }

    /**
     * Switch the attribution class events are charged to (see
     * pca::obs::AttrClass). The core switches it itself on trap
     * entry/exit; the kernel calls this when the scheduler path
     * diverges from plain interrupt service (preemption).
     */
    void setAttrClass(obs::AttrClass c) { pmuUnit.setAttrClass(c); }

    /** Counter index of the PMI being serviced (-1 none). */
    int overflowedCounter() const { return pmiCounter; }

    /** Clear architectural and micro-architectural state. */
    void reset();

    // --- isa::CpuContext ---
    std::uint64_t getReg(isa::Reg r) const override;
    void setReg(isa::Reg r, std::uint64_t v) override;
    void jumpTo(const std::string &symbol) override;
    Mode mode() const override { return curMode; }
    Cycles cycles() const override { return cycleCount; }

  private:
    /**
     * Context pushed on trap entry. Includes the flags: interrupts
     * and int-style syscalls push EFLAGS and iret restores it —
     * without this, a handler's last compare would leak into the
     * interrupted code's next conditional branch.
     */
    struct SavedContext
    {
        isa::CodePtr pc;
        Mode mode;
        bool fromInterrupt;
        bool zeroFlag;
        bool lessFlag;
        obs::AttrClass attrCls;
    };

    /** Per-branch loop fast-forward bookkeeping. */
    struct LoopFf
    {
        bool headTaken = false;
        // Refusal charged on every back-edge once the loop shape is
        // unsupported (FfRejectMultireg or FfRejectIdiom); NumSpcs
        // while the loop is still a candidate.
        obs::Spc unsafe = obs::Spc::NumSpcs;

        std::array<std::uint64_t, isa::numRegs> headRegs{};
        IterCost head;

        int changedReg = -1;
        std::int64_t step = 0;
        CostRing costs;
    };

    void step();
    Count stepDecodedBlock();
    Count stepTraceTier();
    Count runSuperblock(const Superblock &sb, bool check_irq,
                        Cycles irq_due, Count budget);
    std::uint64_t runBulkPasses(const Superblock &sb,
                                std::uint64_t passCap);
    /** Existing trace for (block, head), building it when the head
     * crosses the hotness threshold; null until then (or forever,
     * for unprofitable heads). */
    const Superblock *traceFor(int block, int head);
    void execute(const isa::Inst &in);
    void deliverInterrupt(int vector);
    void chargeCycles(Cycles c);
    void countEvent(EventType ev, Count n = 1);
    void fetchCosts(const isa::Inst &in);
    void doTakenBranch(const isa::Inst &in, isa::CodePtr target);
    void dataAccess(Addr addr);
    void maybeFastForwardKeyed(std::uint64_t key,
                               const isa::Inst &branch,
                               int branch_index);
    std::uint64_t &reg(isa::Reg r);

    const MicroArch &archRef;
    Pmu pmuUnit;
    FrontEnd frontEnd;
    BranchPredictor predictor;
    CacheModel icache;
    CacheModel itlb;
    CacheModel dcache;
    CacheModel l2;
    CacheModel dtlb;

    const isa::Program *program = nullptr;
    obs::Profiler *prof = nullptr;
    isa::CodePtr pc;
    isa::CodePtr syscallEntry;
    isa::CodePtr interruptEntry;
    InterruptClient *intClient = nullptr;

    std::array<std::uint64_t, isa::numRegs> regs{};
    bool zeroFlag = false;
    bool lessFlag = false;
    Mode curMode = Mode::User;
    bool userRdpmcOk = false;
    bool userRdtscOk = true;

    std::vector<isa::CodePtr> callStack;
    std::vector<SavedContext> trapStack;
    std::unordered_map<Addr, std::uint64_t> memory;

    Cycles cycleCount = 0;
    std::array<Cycles, 2> cyclesPerMode{};
    std::array<Count, 2> instrPerMode{};
    std::array<std::array<Count, 2>, numEvents> rawEv{};
    Count interruptCount = 0;
    Count ffIters = 0;

    bool halted = false;
    bool pcRedirected = false; //!< set when execute() changed pc
    int activeVector = -1;
    Addr interruptedAddr = 0;
    int pmiCounter = -1;

    // Fast-forward state.
    bool ffEnabled = true;
    std::unordered_map<std::uint64_t, LoopFf> loops;
    bool poisonSinceBackward = true;

    // Decode-cache (basic-block) engine state. The last-fetched
    // icache line / iTLB page let the block engine skip redundant
    // lookups for consecutive fetches within one line: a repeat
    // access is a guaranteed hit and, with a strictly monotonic
    // per-model LRU clock, skipping it cannot change any future
    // victim choice — so misses, penalties and cycles are identical.
    bool decodeOn = true;
    int icLineShift = 0;
    int itlbPageShift = 0;
    int dcLineShift = 0;
    int dtlbPageShift = 0;
    Addr lastFetchLine = ~Addr{0};
    Addr lastFetchPage = ~Addr{0};

    // Memory-resident pass scratch (see runSuperblock): the
    // dcache-line / dTLB-page key of each memory element's address
    // on the most recent element-wise pass, and the pass-local store
    // buffer a resident pass stages its writes in. Pure scratch —
    // holds no state across dispatches that affects results.
    std::vector<Addr> sbMemLine;
    std::vector<Addr> sbMemPage;
    std::vector<std::pair<Addr, std::uint64_t>> sbStoreBuf;
    /** Direct-threaded bulk-pass body (translated from the
     * superblock's BulkOps on each runBulkPasses entry). */
    std::vector<ThreadedBulkOp> sbBulkCode;

    // Trace-tier state. Traces and heat counters are derivatives of
    // the immutable decoded program (no architectural or PMU state),
    // keyed by (block id << 32 | head index). reset() and
    // setProgram() drop them wholesale: a rebooted machine re-warms
    // its traces exactly like a fresh boot, and a relinked program
    // can never execute through stale images.
    bool traceOn = true;
    std::unordered_map<std::uint64_t, Superblock> traces;
    std::unordered_map<std::uint64_t, std::uint32_t> traceHeat;

    // Run-deadline watchdog budgets (0 = unlimited). Survive
    // reset(): they model harness policy, not machine state.
    Count deadlineInstrs = 0;
    Cycles deadlineCycles = 0;
};

} // namespace pca::cpu

#endif // PCA_CPU_CORE_HH
