/**
 * @file
 * End-to-end timing tests: cycles-per-iteration bands per
 * micro-architecture, placement sensitivity (the Section 6 effect),
 * and event counting for front-end structures.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "harness/machine.hh"
#include "isa/assembler.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"

namespace pca::cpu
{
namespace
{

using harness::Interface;
using harness::Machine;
using harness::MachineConfig;
using isa::Assembler;
using isa::Reg;

/** Run the paper's loop at a given user-text offset; cycles/iter. */
double
cyclesPerIter(Processor proc, Addr offset, Count iters = 200000)
{
    MachineConfig cfg;
    cfg.processor = proc;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0);
    int loop = a.label();
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize(offset);
    const auto r = m.run();
    return static_cast<double>(r.cycles) / static_cast<double>(iters);
}

TEST(Timing, K8LoopBimodalAcrossPlacements)
{
    bool saw2 = false, saw3 = false;
    for (Addr off = 0; off < 16; ++off) {
        const double cpi = cyclesPerIter(Processor::AthlonX2, off);
        EXPECT_GT(cpi, 1.9);
        EXPECT_LT(cpi, 3.1);
        saw2 |= cpi < 2.2;
        saw3 |= cpi > 2.8;
    }
    // Figure 11: the c=2i and c=3i groups both occur.
    EXPECT_TRUE(saw2);
    EXPECT_TRUE(saw3);
}

TEST(Timing, Core2RunsFasterThanK8)
{
    // The LSD makes Core2's best case ~1 cycle/iteration.
    double best_cd = 1e9;
    for (Addr off = 0; off < 16; ++off)
        best_cd = std::min(best_cd,
                           cyclesPerIter(Processor::Core2Duo, off));
    EXPECT_LT(best_cd, 1.3);
}

TEST(Timing, PentiumDShowsWidestSpread)
{
    double lo = 1e9, hi = 0;
    for (Addr off = 0; off < 128; off += 8) {
        const double cpi = cyclesPerIter(Processor::PentiumD, off,
                                         100000);
        lo = std::min(lo, cpi);
        hi = std::max(hi, cpi);
    }
    // Paper: 1.5 to 4 million cycles for a 1M-iteration loop.
    EXPECT_LT(lo, 2.0);
    EXPECT_GT(hi, 2.8);
    EXPECT_GT(hi / lo, 1.5);
}

TEST(Timing, PlacementChangesCyclesButNotInstructions)
{
    auto run_at = [](Addr off) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = false;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 50000).jne(loop).halt();
        m.addUserBlock(a.take());
        m.finalize(off);
        return m.run();
    };
    const auto a = run_at(0);
    const auto b = run_at(10);
    EXPECT_EQ(a.userInstr, b.userInstr); // ISA-level count invariant
    EXPECT_NE(a.cycles, b.cycles);       // µarch-level count shifts
}

TEST(Timing, IcacheMissesCountedOnColdCode)
{
    MachineConfig cfg;
    cfg.processor = Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.nop(2048).halt(); // 2 KiB of straight-line code: 32+ lines
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    const auto misses =
        m.core().rawEvents(EventType::IcacheMiss, Mode::User);
    EXPECT_GE(misses, 30u);
    EXPECT_LE(misses, 40u);
}

TEST(Timing, ItlbMissOnFirstPageOnly)
{
    MachineConfig cfg;
    cfg.processor = Processor::AthlonX2;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = false;
    Machine m(cfg);
    Assembler a("main");
    a.nop(100).halt();
    m.addUserBlock(a.take());
    m.finalize();
    m.run();
    EXPECT_EQ(m.core().rawEvents(EventType::ItlbMiss, Mode::User),
              1u);
}

TEST(Timing, MispredictPenaltyVisibleInCycles)
{
    // A data-dependent unpredictable branch pattern costs more
    // cycles than a well-predicted one with the same instruction mix.
    auto run_pattern = [](bool alternating) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = false;
        Machine m(cfg);
        Assembler a("main");
        // eax counts iterations; ebx toggles (alternating) or stays 0.
        a.movImm(Reg::Eax, 0).movImm(Reg::Ebx, 0).movImm(Reg::Edx, 1);
        int loop = a.label();
        int skip = a.forwardLabel();
        if (alternating)
            a.xorReg(Reg::Ebx, Reg::Edx); // 0,1,0,1,...
        else
            a.xorReg(Reg::Ebx, Reg::Ebx); // always 0
        a.cmpImm(Reg::Ebx, 1);
        a.je(skip); // taken every other iteration vs never
        a.nop(1);
        a.bind(skip);
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 20000).jne(loop);
        a.halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run().cycles;
    };
    EXPECT_GT(run_pattern(true), run_pattern(false) + 20000u);
}

TEST(Timing, FastForwardPreservesCycleCounts)
{
    auto run_ff = [](bool ff) {
        MachineConfig cfg;
        cfg.processor = Processor::Core2Duo;
        cfg.iface = Interface::Pc;
        cfg.interruptsEnabled = false;
        cfg.fastForward = ff;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1).cmpImm(Reg::Eax, 30000).jne(loop).halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run();
    };
    const auto with_ff = run_ff(true);
    const auto without_ff = run_ff(false);
    EXPECT_EQ(with_ff.cycles, without_ff.cycles);
    EXPECT_EQ(with_ff.userInstr, without_ff.userInstr);
    EXPECT_GT(with_ff.fastForwardedIters, 0u);
    EXPECT_EQ(without_ff.fastForwardedIters, 0u);
}

TEST(Timing, FastForwardPreservesCycleCountsWithInterrupts)
{
    auto run_ff = [](bool ff) {
        MachineConfig cfg;
        cfg.processor = Processor::AthlonX2;
        cfg.iface = Interface::Pm;
        cfg.interruptsEnabled = true;
        cfg.ioInterrupts = false;
        cfg.preemptProb = 0.0;
        cfg.seed = 99;
        cfg.fastForward = ff;
        Machine m(cfg);
        Assembler a("main");
        a.movImm(Reg::Eax, 0);
        int loop = a.label();
        a.addImm(Reg::Eax, 1)
            .cmpImm(Reg::Eax, 3000000)
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
        m.finalize();
        return m.run();
    };
    const auto with_ff = run_ff(true);
    const auto without_ff = run_ff(false);
    // Interrupt timing must be bit-identical across FF modes.
    EXPECT_EQ(with_ff.interrupts, without_ff.interrupts);
    EXPECT_EQ(with_ff.cycles, without_ff.cycles);
    EXPECT_EQ(with_ff.kernelInstr, without_ff.kernelInstr);
}

// ---------------------------------------------------------------- //
// Period-k loop fast-forward: byte-identity with pure interpretation
// ---------------------------------------------------------------- //

/** One counted loop on a full machine. */
struct LoopSpec
{
    Processor proc = Processor::AthlonX2;
    Addr offset = 0;
    Count iters = 20000;
    bool timer = false; //!< timer interrupts (no I/O, no preemption)
    /**
     * Inner branches steered by the induction: bit k of eax gates
     * 2^k branches to the next instruction. A taken and a not-taken
     * branch retire the same instructions at different cycle costs,
     * so iteration i costs a distinct function of i mod 2^n.
     */
    int inductionBits = 0;
    /** An inner branch on a loop-invariant register (always taken). */
    bool invariantBranch = false;
};

/** Results, every raw event and the fast-forward use of one run. */
struct LoopOutcome
{
    std::string digest; //!< RunResult + raw events, ff-invariant part
    Count ffIters = 0;
    Count interrupts = 0;
};

LoopOutcome
runLoop(const LoopSpec &spec, bool ff, bool decode = true)
{
    MachineConfig cfg;
    cfg.processor = spec.proc;
    cfg.iface = Interface::Pm;
    cfg.interruptsEnabled = spec.timer;
    cfg.ioInterrupts = false;
    cfg.preemptProb = 0.0;
    cfg.fastForward = ff;
    cfg.decodeCache = decode;
    Machine m(cfg);
    Assembler a("main");
    a.movImm(Reg::Eax, 0).movImm(Reg::Ecx, 0);
    int loop = a.label();
    for (int k = 0; k < spec.inductionBits; ++k) {
        for (int j = 0; j < (1 << k); ++j) {
            const int next = a.forwardLabel();
            a.movReg(Reg::Ebx, Reg::Eax)
                .andImm(Reg::Ebx, std::int64_t{1} << k)
                .cmpImm(Reg::Ebx, 0)
                .je(next);
            a.bind(next);
        }
    }
    if (spec.inductionBits > 0)
        a.movImm(Reg::Ebx, 0); // only eax differs between heads
    if (spec.invariantBranch) {
        const int skip = a.forwardLabel();
        a.cmpImm(Reg::Ecx, 0).je(skip).nop(1);
        a.bind(skip);
    }
    a.addImm(Reg::Eax, 1)
        .cmpImm(Reg::Eax, static_cast<std::int64_t>(spec.iters))
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize(spec.offset);
    // Trace the run when ticks are on: the trace stamps every
    // interrupt with its delivery cycle, and a tick delivered late
    // leaves every total below unchanged.
    obs::tracer().clear();
    obs::tracer().setEnabled(spec.timer);
    const RunResult r = m.run();
    obs::tracer().setEnabled(false);

    LoopOutcome out;
    std::ostringstream os;
    os << r.userInstr << '/' << r.kernelInstr << '/' << r.cycles << '/'
       << r.interrupts;
    for (std::size_t e = 0; e < numEvents; ++e)
        for (auto mode : {Mode::User, Mode::Kernel})
            os << '/' << m.core().rawEvents(static_cast<EventType>(e),
                                            mode);
    obs::tracer().writeChromeJson(os);
    obs::tracer().clear();
    out.digest = os.str();
    out.ffIters = r.fastForwardedIters;
    out.interrupts = r.interrupts;
    return out;
}

/**
 * Run @p spec with fast-forward on, decode cache on and off:
 * everything but fastForwardedIters must match pure interpretation
 * (fast-forward and decode cache off). Returns the fast-forwarded
 * iterations of each run.
 */
std::vector<Count>
expectFfInvisible(const LoopSpec &spec)
{
    const LoopOutcome ref = runLoop(spec, false, false);
    EXPECT_EQ(ref.ffIters, 0u);
    std::vector<Count> ff_iters;
    for (bool decode : {true, false}) {
        const LoopOutcome on = runLoop(spec, true, decode);
        EXPECT_EQ(on.digest, ref.digest) << "decode=" << decode;
        ff_iters.push_back(on.ffIters);
    }
    return ff_iters;
}

/** Fresh SPC state with the fast-forward counters enabled. */
void
attachFfSpcs()
{
    obs::spcReset();
    obs::spcAttach("fast_forward_iters,ff_periodic_iters,"
                   "ff_reject_instr,ff_reject_cycles,ff_reject_events,"
                   "ff_reject_multireg,ff_reject_idiom,ff_reject_irq");
}

TEST(PeriodicFastForward, K8PlacementsKeepPeriodOneSkip)
{
    // Figure 11's two K8 groups: 2 and 3 cycles per iteration by
    // placement, each a constant per-iteration cost, so the skip is
    // the period-1 one: at the fourth back-edge, every remaining
    // iteration but the last.
    attachFfSpcs();
    for (Addr off : {Addr{0}, Addr{2}}) {
        const LoopSpec spec{Processor::AthlonX2, off, 20000};
        for (Count ffi : expectFfInvisible(spec))
            EXPECT_EQ(ffi, spec.iters - 5) << "offset " << off;
    }
    EXPECT_EQ(obs::spcValue(obs::Spc::FfPeriodicIters), 0u);
    obs::spcReset();
}

TEST(PeriodicFastForward, NetBurstTwoThreeAlternationSkipsWholePeriods)
{
    // NetBurst's double-pumped redirect makes the same loop cost 2,3,
    // 2,3,... cycles per iteration: period 2, which period-1
    // detection refused on every back-edge.
    attachFfSpcs();
    const LoopSpec spec{Processor::PentiumD, 18, 20001};
    EXPECT_NEAR(cyclesPerIter(Processor::PentiumD, 18), 2.5, 0.01);
    for (Count ffi : expectFfInvisible(spec)) {
        EXPECT_GT(ffi, spec.iters - 16);
        EXPECT_EQ(ffi % 2, 0u); // whole periods only
    }
    EXPECT_GT(obs::spcValue(obs::Spc::FfPeriodicIters), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::FfPeriodicIters),
              obs::spcValue(obs::Spc::FastForwardIters));
    obs::spcReset();
}

TEST(PeriodicFastForward, TimerTicksInsideTheSkipMatchInterpretation)
{
    // Trip counts that straddle several timer ticks: the interrupt
    // horizon, counted in whole periods, must land every tick on the
    // same instruction and cycle as pure interpretation.
    attachFfSpcs();
    for (const LoopSpec &spec :
         {LoopSpec{Processor::AthlonX2, 0, 2000000, true},
          LoopSpec{Processor::PentiumD, 18, 2000001, true}}) {
        for (Count ffi : expectFfInvisible(spec))
            EXPECT_GT(ffi, spec.iters / 2);
        EXPECT_GT(runLoop(spec, true).interrupts, 1u);
    }
    EXPECT_GT(obs::spcValue(obs::Spc::FfPeriodicIters), 0u);
    obs::spcReset();
}

TEST(PeriodicFastForward, InvariantInnerBranchStillSkips)
{
    attachFfSpcs();
    LoopSpec spec;
    spec.invariantBranch = true;
    for (Count ffi : expectFfInvisible(spec))
        EXPECT_GT(ffi, spec.iters - 16);
    EXPECT_EQ(obs::spcValue(obs::Spc::FfRejectIdiom), 0u);
    obs::spcReset();
}

TEST(PeriodicFastForward, InductionSteeredBranchesAreRefused)
{
    // Costs of a loop that branches on induction bits repeat only
    // every 2^n iterations, yet can match for a few iterations by
    // coincidence (NetBurst, 3 bits: two equal consecutive costs, on
    // which a cost-only detector skips ~10000 iterations at the wrong
    // cost). The body check refuses them all.
    attachFfSpcs();
    for (Processor proc : {Processor::PentiumD, Processor::Core2Duo,
                           Processor::AthlonX2}) {
        for (int bits = 1; bits <= 3; ++bits) {
            LoopSpec spec{proc, 0, 10000};
            spec.inductionBits = bits;
            for (Count ffi : expectFfInvisible(spec))
                EXPECT_EQ(ffi, 0u) << "bits " << bits;
        }
    }
    EXPECT_GT(obs::spcValue(obs::Spc::FfRejectIdiom), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::FastForwardIters), 0u);
    obs::spcReset();
}

TEST(PeriodicFastForward, PeriodBeyondRingRefusedOnCycles)
{
    // Four induction bits: 16 distinct per-iteration cycle costs and
    // equal instruction counts, a period the 16-entry ring cannot
    // confirm. Every back-edge after warm-up, in every run with
    // fast-forward on, is charged to cycles.
    attachFfSpcs();
    LoopSpec spec{Processor::AthlonX2, 0, 10000};
    spec.inductionBits = 4;
    const std::vector<Count> ff_iters = expectFfInvisible(spec);
    for (Count ffi : ff_iters)
        EXPECT_EQ(ffi, 0u);
    EXPECT_GT(obs::spcValue(obs::Spc::FfRejectCycles),
              ff_iters.size() * 9000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::FfRejectInstr), 0u);
    obs::spcReset();
}

} // namespace
} // namespace pca::cpu
