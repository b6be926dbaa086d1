/**
 * @file
 * The pre-decoded basic-block engine's one contract: it must be
 * invisible. Architectural state, PMU counts, interrupt delivery and
 * every canned study's CSV must be byte-identical with the decode
 * cache on and off — serial or parallel, with or without an active
 * fault plan — across the loop shapes that stress it: call/ret under
 * interrupts, time reads, strided and nested memory walks. Plus unit
 * tests of the decoder itself (flags, escape classification,
 * straight-line run boundaries) and of its escape counters.
 */

#include <cstdlib>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/harness.hh"
#include "harness/machine.hh"
#include "harness/microbench.hh"
#include "isa/assembler.hh"
#include "isa/program.hh"
#include "obs/spc.hh"

using namespace pca;
using namespace pca::harness;

// ---------------------------------------------------------------- //
// Decoder unit tests
// ---------------------------------------------------------------- //

namespace
{

/** Build a linked single-block program around the given assembly. */
isa::Program
linkLoop(Count iters)
{
    isa::Assembler a("main");
    a.movImm(isa::Reg::Eax, 0);
    int loop = a.label();
    a.addImm(isa::Reg::Eax, 1)
        .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(iters))
        .jne(loop)
        .halt();
    isa::Program p;
    p.add(a.take());
    p.link2(/*user_base=*/0x1000, /*kernel_base=*/0x100000);
    return p;
}

} // namespace

TEST(DecodedBlock, FlagsAndEscapes)
{
    const isa::Program p = linkLoop(10);
    const isa::DecodedBlock &db = p.decoded(0);
    ASSERT_EQ(db.size(), 5u);

    // movImm / addImm / cmpImm: inline, ff-safe, not branches.
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_FALSE(db.inst(i).escape()) << i;
        EXPECT_NE(db.inst(i).flags & isa::DiFfSafe, 0) << i;
        EXPECT_EQ(db.inst(i).flags & isa::DiCondBranch, 0) << i;
    }

    // jne loop: conditional backward branch with a resolved target.
    const isa::DecodedInst &jne = db.inst(3);
    EXPECT_FALSE(jne.escape());
    EXPECT_NE(jne.flags & isa::DiCondBranch, 0);
    EXPECT_NE(jne.flags & isa::DiBackwardBranch, 0);
    EXPECT_EQ(jne.targetIndex, 1);

    // halt: escape (handled by the legacy interpreter).
    EXPECT_TRUE(db.inst(4).escape());
}

TEST(DecodedBlock, RunEndsStopAtEscapes)
{
    const isa::Program p = linkLoop(10);
    const isa::DecodedBlock &db = p.decoded(0);
    // From any of the first four instructions the straight-line run
    // extends to the halt at index 4; the halt's own run is itself.
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(db.runEnd(i), 4) << i;
    EXPECT_EQ(db.runEnd(4), 4);
}

// ---------------------------------------------------------------- //
// Core-level equality across loop shapes
// ---------------------------------------------------------------- //

namespace
{

/** Machine settings of one identity check (decode is the variable). */
struct Shape
{
    cpu::Processor proc = cpu::Processor::PentiumD;
    bool ff = true;
    bool interrupts = true;
};

MachineConfig
configFor(bool decode, const Shape &shape)
{
    MachineConfig cfg;
    cfg.processor = shape.proc;
    cfg.iface = Interface::Pc;
    cfg.interruptsEnabled = shape.interrupts;
    cfg.fastForward = shape.ff;
    cfg.decodeCache = decode;
    return cfg;
}

/** Run @p m; digest the run: results plus every raw event counter. */
std::string
runDigest(Machine &m)
{
    const cpu::RunResult r = m.run();
    std::ostringstream os;
    os << r.userInstr << '/' << r.kernelInstr << '/' << r.cycles
       << '/' << r.interrupts << '/' << r.fastForwardedIters;
    for (std::size_t e = 0; e < cpu::numEvents; ++e)
        for (auto mode : {Mode::User, Mode::Kernel})
            os << '/'
               << m.core().rawEvents(static_cast<cpu::EventType>(e),
                                     mode);
    return os.str();
}

/** Boot a machine with the user blocks @p emit adds; digest its run. */
template <typename Emit>
std::string
shapeDigest(bool decode, const Shape &shape, Emit &&emit)
{
    Machine m(configFor(decode, shape));
    emit(m);
    m.finalize();
    m.core().allowUserRdpmc(true); // the time-read shapes use rdpmc
    return runDigest(m);
}

/** The block engine must match per-step interpretation exactly. */
template <typename Emit>
void
expectDecodeInvisible(const Shape &shape, Emit &&emit,
                      const std::string &what)
{
    EXPECT_EQ(shapeDigest(true, shape, emit),
              shapeDigest(false, shape, emit))
        << what << " proc=" << cpu::processorCode(shape.proc)
        << " ff=" << shape.ff << " interrupts=" << shape.interrupts;
}

/** Counted loop (movImm; add/cmp/jne; halt). */
auto
countedLoop(Count iters)
{
    return [iters](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Eax, 0);
        int loop = a.label();
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/** Time-read opcode a loop body may carry (or none). */
enum class TimeRead
{
    None,
    Rdtsc,
    Rdpmc,
};

/**
 * Loop that calls a leaf every iteration (@p call), so the core's
 * return-address stack is live in nearly every dispatch, and reads
 * @p time after it. The counter lives in Esi because the time reads
 * write Eax.
 */
auto
callLoop(Count iters, bool call, TimeRead time)
{
    return [=](Machine &m) {
        isa::Assembler fn("leaf");
        fn.addImm(isa::Reg::Ebx, 1).ret();
        m.addUserBlock(fn.take());

        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0).movImm(isa::Reg::Ecx, 0);
        int loop = a.label();
        if (call)
            a.call("leaf");
        if (time == TimeRead::Rdtsc)
            a.rdtsc();
        else if (time == TimeRead::Rdpmc)
            a.rdpmc();
        a.addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Load-modify-store loop through Ecx advancing by @p stride bytes per
 * iteration (0 = constant address, negative = descending walk).
 */
auto
stridedLoop(Count iters, std::int64_t stride)
{
    return [=](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Esi, 0).movImm(isa::Reg::Ecx, 0x400000);
        int loop = a.label();
        a.load(isa::Reg::Ebx, isa::Reg::Ecx, 0)
            .addImm(isa::Reg::Ebx, 3)
            .store(isa::Reg::Ebx, isa::Reg::Ecx, 0);
        if (stride > 0)
            a.addImm(isa::Reg::Ecx, stride);
        else if (stride < 0)
            a.subImm(isa::Reg::Ecx, -stride);
        a.addImm(isa::Reg::Esi, 1)
            .cmpImm(isa::Reg::Esi, static_cast<std::int64_t>(iters))
            .jne(loop)
            .halt();
        m.addUserBlock(a.take());
    };
}

/**
 * Doubly-nested counted loop whose inner body walks memory with a
 * stride that grows by @p stride_step bytes per outer pass (0 keeps
 * the inner body register-only), so the inner walk's pattern changes
 * after every inner run.
 */
auto
nestedLoop(Count outer, Count inner, std::int64_t stride_step)
{
    return [=](Machine &m) {
        isa::Assembler a("main");
        a.movImm(isa::Reg::Edi, 0).movImm(isa::Reg::Edx, 0);
        int oloop = a.label();
        a.movImm(isa::Reg::Ecx, 0x400000).movImm(isa::Reg::Eax, 0);
        int iloop = a.label();
        if (stride_step != 0)
            a.load(isa::Reg::Ebx, isa::Reg::Ecx, 0)
                .addReg(isa::Reg::Ecx, isa::Reg::Edx);
        a.addImm(isa::Reg::Eax, 1)
            .cmpImm(isa::Reg::Eax, static_cast<std::int64_t>(inner))
            .jne(iloop);
        if (stride_step != 0)
            a.addImm(isa::Reg::Edx, stride_step);
        a.addImm(isa::Reg::Edi, 1)
            .cmpImm(isa::Reg::Edi, static_cast<std::int64_t>(outer))
            .jne(oloop)
            .halt();
        m.addUserBlock(a.take());
    };
}

constexpr cpu::Processor bothProcs[] = {cpu::Processor::PentiumD,
                                        cpu::Processor::AthlonX2};

} // namespace

TEST(DecodeCacheCore, InterruptDeliveryIdentical)
{
    // Interrupts enabled (default): the engine must break dispatch at
    // exactly the cycles the per-step interpreter polls.
    expectDecodeInvisible(Shape{}, countedLoop(200000), "counted loop");
}

TEST(DecodeCacheLoops, TimeReadsIdenticalInterruptsOff)
{
    // With interrupts off the run is one long dispatch chain: every
    // rdtsc/rdpmc must still observe fully retired state.
    for (const auto proc : bothProcs)
        for (const bool call : {false, true})
            for (const auto time : {TimeRead::Rdtsc, TimeRead::Rdpmc})
                expectDecodeInvisible(
                    Shape{proc, true, false}, callLoop(30000, call, time),
                    std::string(time == TimeRead::Rdpmc ? "rdpmc"
                                                        : "rdtsc") +
                        (call ? " loop with call" : " loop"));
}

TEST(DecodeCacheLoops, StridePatternsIdentical)
{
    // Constant address (0), a stride crossing a dcache line every few
    // iterations (8), a descending walk (-8), and a page crossing on
    // every iteration (4096, so the dTLB never quiets), with
    // interrupts landing mid-run throughout.
    for (const auto proc : bothProcs)
        for (const std::int64_t stride : {0, 8, -8, 4096})
            for (const bool ff : {false, true})
                expectDecodeInvisible(Shape{proc, ff, true},
                                      stridedLoop(30000, stride),
                                      "stride=" + std::to_string(stride));
}

TEST(DecodeCacheLoops, NestedLoopsIdentical)
{
    // A register-only inner loop, and an inner walk whose stride
    // changes after every inner run.
    for (const auto proc : bothProcs)
        for (const std::int64_t step : {0, 8})
            for (const bool ff : {false, true})
                expectDecodeInvisible(Shape{proc, ff, true},
                                      nestedLoop(200, 150, step),
                                      "nested, step=" +
                                          std::to_string(step));
}

// ---------------------------------------------------------------- //
// TraceTier* suites: named for the superblock tier that once ran
// above the block engine. They keep the loop shapes that tier was
// tested with and now check the block engine against step() on them.
// ---------------------------------------------------------------- //

TEST(TraceTierCore, InterruptDeliveryIdentical)
{
    // Long enough that many timer interrupts land mid-loop, on both
    // processors, with loop fast-forward off (every iteration runs
    // through the engine) and on (iterations skipped in bulk up to
    // the interrupt horizon).
    for (const auto proc : bothProcs)
        for (const bool ff : {false, true})
            expectDecodeInvisible(Shape{proc, ff, true},
                                  countedLoop(200000), "counted loop");
}

TEST(TraceTierCore, ReturnStackIdenticalUnderInterrupts)
{
    // Timer interrupts deliver between dispatches while call/ret keep
    // the core's return-address stack live and every iteration reads
    // the TSC: the stack must be exactly where per-step
    // interpretation leaves it at every poll point.
    for (const auto proc : bothProcs)
        for (const bool ff : {false, true})
            expectDecodeInvisible(Shape{proc, ff, true},
                                  callLoop(30000, true, TimeRead::Rdtsc),
                                  "call+rdtsc loop");
}

TEST(TraceTierCore, EscapeCountersTellTiersApart)
{
    // The escape SPCs tell the two execution paths apart: the block
    // engine falls back to step() once per call, ret and time read;
    // with the engine off step() runs everything and nothing escapes.
    // Both paths produce the same run.
    obs::spcReset();
    obs::spcAttach("all");
    const Shape shape{cpu::Processor::AthlonX2, false, false};
    const auto loop = callLoop(500, true, TimeRead::Rdtsc);

    const std::string block = shapeDigest(true, shape, loop);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeCallret), 1000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeTimeread), 500u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeSyscall), 0u);

    obs::spcReset();
    obs::spcAttach("all");
    EXPECT_EQ(shapeDigest(false, shape, loop), block);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeCallret), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeTimeread), 0u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeSyscall), 0u);
    obs::spcReset();
}

TEST(TraceTierCore, EscapesFoldAwayAndRebootReforms)
{
    // A register-only warm-up loop runs inside decoded blocks with no
    // escape; the call+rdtsc loop after it escapes on every call, ret
    // and rdtsc. A reboot must replay the run exactly, escapes
    // included.
    obs::spcReset();
    obs::spcAttach("all");
    const MachineConfig cfg =
        configFor(true, Shape{cpu::Processor::AthlonX2, false, false});
    Machine m(cfg);
    {
        isa::Assembler fn("leaf");
        fn.addImm(isa::Reg::Ebx, 1).ret();
        m.addUserBlock(fn.take());
    }
    isa::Assembler a("main");
    a.movImm(isa::Reg::Esi, 0);
    int warm = a.label();
    a.addImm(isa::Reg::Esi, 1).cmpImm(isa::Reg::Esi, 1000).jne(warm);
    a.movImm(isa::Reg::Esi, 0);
    int loop = a.label();
    a.call("leaf")
        .rdtsc()
        .addImm(isa::Reg::Esi, 1)
        .cmpImm(isa::Reg::Esi, 1000)
        .jne(loop)
        .halt();
    m.addUserBlock(a.take());
    m.finalize();

    const std::string first = runDigest(m);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeCallret), 2000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeTimeread), 1000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeSyscall), 0u);
    const Count other = obs::spcValue(obs::Spc::DecodedEscapeOther);

    m.reboot(cfg.seed);
    EXPECT_EQ(runDigest(m), first);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeCallret), 4000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeTimeread), 2000u);
    EXPECT_EQ(obs::spcValue(obs::Spc::DecodedEscapeOther), 2 * other);
    obs::spcReset();
}

TEST(TraceTierMemory, InlinedCallLoopIdenticalAllTiers)
{
    // A call loop with no time read: only call and ret leave the
    // block engine, so decoded blocks and step() alternate twice per
    // iteration with interrupts landing mid-run.
    for (const auto proc : bothProcs)
        for (const bool ff : {false, true})
            expectDecodeInvisible(Shape{proc, ff, true},
                                  callLoop(50000, true, TimeRead::None),
                                  "call loop");
}

// ---------------------------------------------------------------- //
// Measurement equality across decode x fast-forward
// ---------------------------------------------------------------- //

TEST(DecodeCacheHarness, MeasurementIdenticalAcrossFfSettings)
{
    const LoopBench bench(50000);
    Measurement ref;
    bool first = true;
    for (const bool decode : {true, false})
        for (const bool ff : {true, false}) {
            HarnessConfig cfg;
            cfg.processor = cpu::Processor::AthlonX2;
            cfg.iface = Interface::Pm;
            cfg.pattern = AccessPattern::ReadRead;
            cfg.seed = 99;
            cfg.decodeCache = decode;
            cfg.fastForward = ff;
            const Measurement m =
                MeasurementHarness(cfg).measure(bench);
            if (first) {
                ref = m;
                first = false;
                continue;
            }
            EXPECT_EQ(ref.c0, m.c0);
            EXPECT_EQ(ref.c1, m.c1);
            EXPECT_EQ(ref.tsc0, m.tsc0);
            EXPECT_EQ(ref.tsc1, m.tsc1);
            EXPECT_EQ(ref.expected, m.expected);
            EXPECT_EQ(ref.run.userInstr, m.run.userInstr);
            EXPECT_EQ(ref.run.kernelInstr, m.run.kernelInstr);
            EXPECT_EQ(ref.run.cycles, m.run.cycles);
            EXPECT_EQ(ref.run.interrupts, m.run.interrupts);
        }
}

// ---------------------------------------------------------------- //
// Canned studies: byte-identical CSV decode on/off
// ---------------------------------------------------------------- //

namespace
{

/**
 * Run @p study under PCA_DECODE=@p decode and PCA_THREADS=@p threads
 * (the env switches the whole study pipeline); return its CSV.
 */
template <typename StudyFn>
std::string
csvWith(bool decode, int threads, StudyFn &&study)
{
    setenv("PCA_DECODE", decode ? "1" : "0", 1);
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
    const core::DataTable table = study();
    unsetenv("PCA_THREADS");
    unsetenv("PCA_DECODE");
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

} // namespace

TEST(DecodeCacheStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo,
                                         cpu::Processor::PentiumD})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    ASSERT_FALSE(points.empty());
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42, obs);
    };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith(true, threads, study),
                  csvWith(false, threads, study))
            << "threads=" << threads;
}

TEST(DecodeCacheStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo,
                      cpu::Processor::PentiumD};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    auto study = [&] { return core::runDurationStudy(opt); };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith(true, threads, study),
                  csvWith(false, threads, study))
            << "threads=" << threads;
}

TEST(DecodeCacheStudies, CycleStudyByteIdentical)
{
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::Core2Duo};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {0, 3};
    opt.runsPerConfig = 2;
    auto study = [&] { return core::runCycleStudy(opt); };
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith(true, threads, study),
                  csvWith(false, threads, study))
            << "threads=" << threads;
}

TEST(DecodeCacheStudies, FaultPlanByteIdentical)
{
    // A live fault plan exercises retries, degraded rows, and
    // counter-width wraps; the decode cache must be invisible there
    // too (faults act on the PMU, not on instruction dispatch).
    setenv("PCA_FAULTS", "seed=7,rate=0.05,width=48", 1);
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::Core2Duo})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    auto study = [&] {
        return core::runNullErrorStudy(points, 3, 42,
                                       core::StudyObsOptions{});
    };
    const std::string on = csvWith(true, 4, study);
    const std::string off = csvWith(false, 4, study);
    unsetenv("PCA_FAULTS");
    EXPECT_EQ(on, off);
}

// ---------------------------------------------------------------- //
// TraceTierStudies: the whole engine x threads matrix against one
// reference, on processors and fault plans the suite above leaves out
// ---------------------------------------------------------------- //

namespace
{

/** Every PCA_DECODE x PCA_THREADS point must give the same CSV. */
template <typename StudyFn>
void
expectEngineAndThreadsInvisible(StudyFn &&study)
{
    const std::string ref = csvWith(true, 1, study);
    EXPECT_EQ(csvWith(true, 4, study), ref) << "block engine, threads=4";
    for (const int threads : {1, 4})
        EXPECT_EQ(csvWith(false, threads, study), ref)
            << "step() only, threads=" << threads;
}

} // namespace

TEST(TraceTierStudies, NullErrorStudyByteIdentical)
{
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::AthlonX2})
                            .optLevels({0, 3})
                            .counterCounts({1, 2})
                            .generate();
    ASSERT_FALSE(points.empty());
    core::StudyObsOptions obs;
    obs.attributionColumns = true;
    expectEngineAndThreadsInvisible(
        [&] { return core::runNullErrorStudy(points, 3, 42, obs); });
}

TEST(TraceTierStudies, DurationStudyByteIdentical)
{
    core::DurationStudyOptions opt;
    opt.processors = {cpu::Processor::AthlonX2};
    opt.loopSizes = {1, 1000, 5000};
    opt.runsPerSize = 2;
    expectEngineAndThreadsInvisible(
        [&] { return core::runDurationStudy(opt); });
}

TEST(TraceTierStudies, CycleStudyByteIdentical)
{
    // PentiumD's loops run at the 2,3,2,3 cost that period-2
    // fast-forward extrapolates; AthlonX2's at a constant cost.
    core::CycleStudyOptions opt;
    opt.processors = {cpu::Processor::PentiumD,
                      cpu::Processor::AthlonX2};
    opt.loopSizes = {1, 1000};
    opt.optLevels = {1, 2};
    opt.runsPerConfig = 2;
    expectEngineAndThreadsInvisible(
        [&] { return core::runCycleStudy(opt); });
}

TEST(TraceTierStudies, FaultPlanByteIdentical)
{
    // A denser fault plan and a narrower counter than the
    // DecodeCacheStudies one: retries, degraded rows and counter
    // wraps must not depend on the engine or the thread count.
    setenv("PCA_FAULTS", "seed=11,rate=0.1,width=40", 1);
    const auto points = core::FactorSpace()
                            .processors({cpu::Processor::PentiumD,
                                         cpu::Processor::AthlonX2})
                            .optLevels({2})
                            .counterCounts({1, 2})
                            .generate();
    expectEngineAndThreadsInvisible([&] {
        return core::runNullErrorStudy(points, 3, 42,
                                       core::StudyObsOptions{});
    });
    unsetenv("PCA_FAULTS");
}
