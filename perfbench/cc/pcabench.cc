/**
 * @file
 * pcabench: the measured side of the study-level benchmark. Each
 * subcommand does one job in a fresh process (exhibits run one study
 * per process, so every study call here pays its cold cost) and
 * prints one JSON object on stdout. perfbench/run.py runs them and
 * turns their output into metrics.
 *
 *   study    --workload W --seed N --threads T --csv FILE [--obs]
 *            One call of the workload's study entry point, timed
 *            from outside the library; writes the table as CSV.
 *            --obs attaches every SPC and enables the tracer for the
 *            call, and reports the SPCs.
 *   replay   --workload W --seed N --threads T --csv FILE
 *            --spans FILE
 *            Replays the study's points, in its order and with its
 *            seed derivation, through FactorPoint::toHarnessConfig,
 *            ProgramCache::session and HarnessSession::tryRun inside
 *            pca::parallelFor, one cache per worker. Records a span
 *            at each call; writes the replayed table (it must equal
 *            the study's) and the spans as JSON lines.
 *   machines
 *            Machine construction, finalize and reboot on standalone
 *            machines, per processor.
 *   oracle   --workload W --seed N --sample K
 *            Re-measures a seeded sample of K points with fast-forward,
 *            the decode cache and the trace tier off, and counts the
 *            runs whose counters or RunResult differ from the default
 *            path.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "core/datatable.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "harness/session.hh"
#include "isa/assembler.hh"
#include "obs/spc.hh"
#include "obs/trace.hh"
#include "stats/descriptive.hh"
#include "support/parallel.hh"
#include "support/random.hh"

namespace
{

using namespace pca;
using harness::HarnessConfig;
using harness::Measurement;

std::int64_t
nowNs()
{
    // libstdc++'s steady_clock reads CLOCK_MONOTONIC, the clock
    // Python's time.monotonic_ns() reads: run.py compares the two.
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "pcabench: " << why
              << "\nusage: pcabench study|replay|machines|oracle "
                 "[--workload W] [--seed N] [--threads T] [--csv F] "
                 "[--spans F] [--obs] [--sample K]\n";
    std::exit(2);
}

struct Args
{
    std::string cmd;
    std::string workload;
    std::uint64_t seed = 0;
    int threads = 1;
    std::string csv;
    std::string spans;
    bool obs = false;
    int sample = 0;
};

long long
parseInt(const std::string &flag, const char *text, long long lo,
         long long hi)
{
    char *end = nullptr;
    errno = 0;
    const long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno != 0 || v < lo || v > hi)
        usage(flag + ": bad value '" + text + "'");
    return v;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        usage("missing subcommand");
    Args a;
    a.cmd = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string f = argv[i];
        if (f == "--obs") {
            a.obs = true;
            continue;
        }
        if (i + 1 >= argc)
            usage(f + " needs a value");
        const char *v = argv[++i];
        if (f == "--workload")
            a.workload = v;
        else if (f == "--seed")
            a.seed = static_cast<std::uint64_t>(
                parseInt(f, v, 0, std::numeric_limits<long long>::max()));
        else if (f == "--threads")
            a.threads = static_cast<int>(parseInt(f, v, 1, 256));
        else if (f == "--csv")
            a.csv = v;
        else if (f == "--spans")
            a.spans = v;
        else if (f == "--sample")
            a.sample = static_cast<int>(parseInt(f, v, 0, 100000));
        else
            usage("unknown flag " + f);
    }
    return a;
}

enum class Workload
{
    Null,
    Duration,
    Cycle,
};

Workload
parseWorkload(const std::string &name)
{
    if (name == "null_sweep")
        return Workload::Null;
    if (name == "duration_sweep")
        return Workload::Duration;
    if (name == "cycle_sweep")
        return Workload::Cycle;
    usage("unknown workload '" + name + "'");
}

/** The null study's factor space: 1920 configurations. */
std::vector<core::FactorPoint>
nullPoints()
{
    return core::FactorSpace()
        .counterCounts({1, 2, 4})
        .tscSettings({true, false})
        .generate();
}

constexpr int nullRuns = 3;
constexpr int durationRuns = 5;

/** One study call through the public entry point. */
core::DataTable
runStudy(Workload w, std::uint64_t seed,
         const std::vector<core::FactorPoint> &null_points)
{
    switch (w) {
      case Workload::Null:
        return core::runNullErrorStudy(null_points, nullRuns, seed);
      case Workload::Duration: {
        core::DurationStudyOptions opt;
        opt.runsPerSize = durationRuns;
        opt.seed = seed;
        return core::runDurationStudy(opt);
      }
      case Workload::Cycle: {
        core::CycleStudyOptions opt;
        opt.seed = seed;
        return core::runCycleStudy(opt);
      }
    }
    usage("unreachable");
}

/**
 * A study's points as the study itself enumerates them, with the
 * row keys and per-run seeds it derives. The replay and the oracle
 * measure from this; the replay-equals-study check in run.py is what
 * keeps it honest.
 */
struct Sweep
{
    struct Point
    {
        core::FactorPoint fp;
        Count loopSize = 0; //!< loop iterations; 0 = null benchmark
        std::vector<std::string> keys; //!< row keys before "run"
    };

    std::vector<std::string> columns;
    std::string valueName;
    bool cycles = false; //!< value is c∆ (else c∆ - expected)
    int runs = 1;
    std::uint64_t seed = 0;
    std::vector<Point> points;

    HarnessConfig
    config(std::size_t i) const
    {
        HarnessConfig cfg = points[i].fp.toHarnessConfig(seed);
        if (cycles)
            cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
        return cfg;
    }

    std::unique_ptr<harness::MicroBenchmark>
    bench(std::size_t i) const
    {
        if (points[i].loopSize == 0)
            return std::make_unique<harness::NullBench>();
        return std::make_unique<harness::LoopBench>(points[i].loopSize);
    }

    std::uint64_t
    runSeed(std::size_t i, int r) const
    {
        const auto ur = static_cast<std::uint64_t>(r);
        if (points[i].loopSize == 0)
            return mixSeed(seed, (i + 1) * 1000 + ur);
        return mixSeed(seed,
                       i * static_cast<std::uint64_t>(runs) + ur + 1);
    }

    double
    value(const Measurement &m) const
    {
        return static_cast<double>(cycles ? m.delta() : m.error());
    }
};

/** The studies' "opt" column: O0..O3. */
std::string
optKey(int level)
{
    std::string key = "O";
    key += std::to_string(level);
    return key;
}

Sweep
makeSweep(Workload w, std::uint64_t seed)
{
    Sweep s;
    s.seed = seed;
    const HarnessConfig defaults;
    switch (w) {
      case Workload::Null:
        s.columns = {"processor", "interface", "pattern", "mode",
                     "opt",       "nctrs",     "tsc",     "run"};
        s.valueName = "error";
        s.runs = nullRuns;
        for (const core::FactorPoint &p : nullPoints())
            s.points.push_back(
                {p, 0,
                 {cpu::processorCode(p.processor),
                  harness::interfaceCode(p.iface),
                  harness::patternName(p.pattern),
                  harness::countingModeName(p.mode),
                  optKey(p.optLevel),
                  std::to_string(p.numCounters),
                  p.tsc ? "on" : "off"}});
        break;
      case Workload::Duration: {
        const core::DurationStudyOptions opt;
        s.columns = {"processor", "interface", "loopsize", "run"};
        s.valueName = "error";
        s.runs = durationRuns;
        for (cpu::Processor proc : opt.processors)
            for (harness::Interface iface : opt.interfaces) {
                if (!harness::patternSupported(iface, opt.pattern))
                    continue;
                for (Count size : opt.loopSizes)
                    s.points.push_back(
                        {{proc, iface, opt.pattern, opt.mode,
                          defaults.optLevel, 1, defaults.tsc},
                         size,
                         {cpu::processorCode(proc),
                          harness::interfaceCode(iface),
                          std::to_string(size)}});
            }
        break;
      }
      case Workload::Cycle: {
        const core::CycleStudyOptions opt;
        s.columns = {"processor", "interface", "pattern",
                     "opt",       "loopsize",  "run"};
        s.valueName = "cycles";
        s.cycles = true;
        s.runs = opt.runsPerConfig;
        for (cpu::Processor proc : opt.processors)
            for (harness::Interface iface : opt.interfaces)
                for (harness::AccessPattern pat : opt.patterns) {
                    if (!harness::patternSupported(iface, pat))
                        continue;
                    for (int opt_level : opt.optLevels)
                        for (Count size : opt.loopSizes)
                            s.points.push_back(
                                {{proc, iface, pat,
                                  harness::CountingMode::UserKernel,
                                  opt_level, 1, defaults.tsc},
                                 size,
                                 {cpu::processorCode(proc),
                                  harness::interfaceCode(iface),
                                  harness::patternName(pat),
                                  optKey(opt_level),
                                  std::to_string(size)}});
                }
        break;
      }
    }
    return s;
}

/** The paper's published values and the table's counterparts. */
struct PaperCheck
{
    std::vector<double> paper;
    std::vector<double> simulated;

    /** Mean relative error of simulated against paper. */
    double
    relErr() const
    {
        double sum = 0;
        for (std::size_t k = 0; k < paper.size(); ++k)
            sum += std::fabs(simulated[k] - paper[k]) / paper[k];
        return sum / static_cast<double>(paper.size());
    }
};

PaperCheck
paperCheck(Workload w, const core::DataTable &t)
{
    switch (w) {
      case Workload::Null: {
        // Figure 1 and Sec. 4: user max, user+kernel max, user IQR.
        const auto user = t.filtered("mode", "user").values();
        const auto uk = t.filtered("mode", "user+kernel").values();
        return {{2500, 10000, 1500},
                {stats::maxOf(user), stats::maxOf(uk),
                 stats::summarize(user).iqr()}};
      }
      case Workload::Duration: {
        // Figure 7: pm on K8 and pc on CD slopes.
        double pm_k8 = std::numeric_limits<double>::quiet_NaN();
        double pc_cd = pm_k8;
        for (const core::SlopeRow &s : core::errorSlopes(t)) {
            if (s.iface == "pm" && s.processor == "K8")
                pm_k8 = s.fit.slope;
            if (s.iface == "pc" && s.processor == "CD")
                pc_cd = s.fit.slope;
        }
        return {{0.001, 0.00204}, {pm_k8, pc_cd}};
      }
      case Workload::Cycle: {
        // Figure 10: PD min and max cycles at 1M iterations, in M.
        const auto pd = t.filtered("processor", "PD")
                            .filtered("loopsize", "1000000")
                            .values();
        return {{1.5, 4.0},
                {stats::minOf(pd) / 1e6, stats::maxOf(pd) / 1e6}};
      }
    }
    usage("unreachable");
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonList(const std::vector<double> &xs)
{
    std::string out = "[";
    for (std::size_t k = 0; k < xs.size(); ++k) {
        if (k)
            out += ',';
        out += num(xs[k]);
    }
    return out + "]";
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

void
writeCsv(const std::string &path, const core::DataTable &t)
{
    std::ofstream os(path);
    t.writeCsv(os);
    if (!os) {
        std::cerr << "pcabench: cannot write " << path << '\n';
        std::exit(1);
    }
}

void
setThreads(int threads)
{
    // The study engine sizes its pool from PCA_THREADS.
    setenv("PCA_THREADS", std::to_string(threads).c_str(), 1);
}

int
cmdStudy(const Args &a)
{
    const Workload w = parseWorkload(a.workload);
    setThreads(a.threads);
    const std::vector<core::FactorPoint> null_points =
        w == Workload::Null ? nullPoints()
                            : std::vector<core::FactorPoint>{};
    if (a.obs) {
        obs::spcAttach("all");
        obs::tracer().setEnabled(true);
    }

    const std::int64_t t0 = nowNs();
    const core::DataTable table = runStudy(w, a.seed, null_points);
    const std::int64_t t1 = nowNs();

    const double rss = peakRssMb();
    writeCsv(a.csv, table);
    const PaperCheck pc = paperCheck(w, table);
    std::ostringstream js;
    js << "{\"call_start_ns\":" << t0
       << ",\"call_s\":" << num(static_cast<double>(t1 - t0) / 1e9)
       << ",\"runs\":" << table.size()
       << ",\"degraded\":" << table.degradedCount()
       << ",\"peak_rss_mb\":" << num(rss)
       << ",\"paper\":" << jsonList(pc.paper)
       << ",\"simulated\":" << jsonList(pc.simulated)
       << ",\"paper_rel_err\":" << num(pc.relErr());
    if (a.obs) {
        js << ",\"spc\":{";
        bool first = true;
        for (obs::Spc c : obs::allSpcs()) {
            js << (first ? "" : ",") << '"' << obs::spcName(c)
               << "\":" << obs::spcValue(c);
            first = false;
        }
        js << '}';
    }
    js << "}\n";
    std::cout << js.str();
    return 0;
}

/** One recorded call: kept in memory, written out at the end. */
struct Span
{
    const char *name;
    std::int64_t start;
    std::int64_t end;
    std::int32_t parent; //!< index in the same worker's buffer; -1 = root
    std::uint32_t point;
};

/** Per-worker simulated totals and span buffer. */
struct WorkerLog
{
    std::vector<Span> spans;
    Count guestInstrs = 0;
    Count simCycles = 0;
    Count ffIters = 0;
    Count loopIters = 0;
};

int
cmdReplay(const Args &a)
{
    const Workload w = parseWorkload(a.workload);
    setThreads(a.threads);
    const Sweep sweep = makeSweep(w, a.seed);
    const std::size_t n = sweep.points.size();
    const auto nthreads = static_cast<std::size_t>(a.threads);

    std::vector<harness::ProgramCache> caches(nthreads);
    std::vector<WorkerLog> logs(nthreads);
    for (WorkerLog &log : logs)
        log.spans.reserve(
            (n * static_cast<std::size_t>(2 * sweep.runs + 1)) /
                nthreads +
            64);
    std::vector<std::vector<StatusOr<Measurement>>> results(n);

    const std::int64_t t0 = nowNs();
    parallelFor(
        n,
        [&](std::size_t i, int worker) {
            WorkerLog &log = logs[static_cast<std::size_t>(worker)];
            harness::ProgramCache &cache =
                caches[static_cast<std::size_t>(worker)];
            const auto point = static_cast<std::uint32_t>(i);
            const auto pidx = static_cast<std::int32_t>(log.spans.size());
            log.spans.push_back({"core.point", nowNs(), 0, -1, point});

            const HarnessConfig cfg = sweep.config(i);
            const auto bench = sweep.bench(i);
            results[i].reserve(static_cast<std::size_t>(sweep.runs));
            for (int r = 0; r < sweep.runs; ++r) {
                const std::uint64_t misses = cache.misses();
                const std::int64_t s0 = nowNs();
                harness::HarnessSession &session =
                    cache.session(cfg, *bench);
                const std::int64_t s1 = nowNs();
                log.spans.push_back({cache.misses() != misses
                                         ? "harness.session_build"
                                         : "harness.session_hit",
                                     s0, s1, pidx, point});

                const std::int64_t r0 = nowNs();
                StatusOr<Measurement> m =
                    session.tryRun(sweep.runSeed(i, r));
                const std::int64_t r1 = nowNs();
                log.spans.push_back(
                    {"harness.run", r0, r1, pidx, point});

                // A failed run shows as a degraded row, which the
                // replay-equals-study check counts.
                if (m.ok()) {
                    log.guestInstrs += m->run.userInstr + m->run.kernelInstr;
                    log.simCycles += m->run.cycles;
                    log.ffIters += m->run.fastForwardedIters;
                    log.loopIters += sweep.points[i].loopSize;
                }
                results[i].push_back(std::move(m));
            }
            log.spans[static_cast<std::size_t>(pidx)].end = nowNs();
        },
        a.threads);
    const std::int64_t t1 = nowNs();

    core::DataTable table(sweep.columns, sweep.valueName);
    for (std::size_t i = 0; i < n; ++i)
        for (int r = 0; r < sweep.runs; ++r) {
            std::vector<std::string> keys = sweep.points[i].keys;
            keys.push_back(std::to_string(r));
            const auto &m = results[i][static_cast<std::size_t>(r)];
            if (m.ok())
                table.add(keys, sweep.value(*m));
            else
                table.add(keys, std::numeric_limits<double>::quiet_NaN(),
                          "degraded");
        }
    writeCsv(a.csv, table);

    // Span ids: 0 is the replay itself, then each worker's buffer in
    // worker order.
    std::ofstream os(a.spans);
    auto line = [&](std::size_t id, const Span &s, long long parent,
                    long long worker) {
        os << "{\"id\":" << id << ",\"parent\":" << parent
           << ",\"name\":\"" << s.name << "\",\"workload\":\""
           << a.workload << "\",\"point\":" << s.point
           << ",\"worker\":" << worker << ",\"start_ns\":" << s.start
           << ",\"end_ns\":" << s.end << "}\n";
    };
    line(0, {"core.replay", t0, t1, -1, 0}, -1, -1);
    std::size_t base = 1;
    WorkerLog total;
    Count hits = 0, misses = 0;
    for (std::size_t wk = 0; wk < nthreads; ++wk) {
        const WorkerLog &log = logs[wk];
        for (std::size_t k = 0; k < log.spans.size(); ++k) {
            const Span &s = log.spans[k];
            line(base + k, s,
                 s.parent < 0
                     ? 0
                     : static_cast<long long>(
                           base + static_cast<std::size_t>(s.parent)),
                 static_cast<long long>(wk));
        }
        base += log.spans.size();
        total.guestInstrs += log.guestInstrs;
        total.simCycles += log.simCycles;
        total.ffIters += log.ffIters;
        total.loopIters += log.loopIters;
        hits += caches[wk].hits();
        misses += caches[wk].misses();
    }
    if (!os) {
        std::cerr << "pcabench: cannot write " << a.spans << '\n';
        return 1;
    }

    std::cout << "{\"wall_s\":" << num(static_cast<double>(t1 - t0) / 1e9)
              << ",\"threads\":" << a.threads << ",\"points\":" << n
              << ",\"runs\":" << table.size()
              << ",\"guest_instrs\":" << total.guestInstrs
              << ",\"sim_cycles\":" << total.simCycles
              << ",\"ff_iters\":" << total.ffIters
              << ",\"loop_iters\":" << total.loopIters
              << ",\"cache_hits\":" << hits
              << ",\"cache_misses\":" << misses << "}\n";
    return 0;
}

int
cmdMachines()
{
    // Repetitions per processor: enough for a steady median.
    constexpr int reps = 20;
    std::vector<double> ctor, fin, reboot;
    for (int rep = 0; rep < reps; ++rep)
        for (cpu::Processor proc : cpu::allProcessors()) {
            harness::MachineConfig mc;
            mc.processor = proc;
            mc.seed = static_cast<std::uint64_t>(rep) + 1;
            isa::Assembler as("main");
            as.halt();
            isa::CodeBlock block = as.take();

            const std::int64_t t0 = nowNs();
            auto m = std::make_unique<harness::Machine>(mc);
            const std::int64_t t1 = nowNs();
            m->addUserBlock(std::move(block));
            const std::int64_t t2 = nowNs();
            m->finalize();
            const std::int64_t t3 = nowNs();
            m->run("main");
            const std::int64_t t4 = nowNs();
            m->reboot(mixSeed(mc.seed, 1));
            const std::int64_t t5 = nowNs();

            ctor.push_back(static_cast<double>(t1 - t0) / 1e3);
            fin.push_back(static_cast<double>(t3 - t2) / 1e3);
            reboot.push_back(static_cast<double>(t5 - t4) / 1e3);
        }
    std::cout << "{\"machine_ctor_us\":" << jsonList(ctor)
              << ",\"finalize_us\":" << jsonList(fin)
              << ",\"reboot_us\":" << jsonList(reboot) << "}\n";
    return 0;
}

/** Fields the shortcuts claim to leave unchanged, compared exactly. */
bool
sameMeasurement(const StatusOr<Measurement> &x,
                const StatusOr<Measurement> &y)
{
    if (x.ok() != y.ok())
        return false;
    if (!x.ok())
        return x.status().code() == y.status().code();
    // RunResult::fastForwardedIters is left out: it counts the
    // shortcut itself and is 0 on the reference path by design.
    return x->c0 == y->c0 && x->c1 == y->c1 && x->tsc0 == y->tsc0 &&
        x->tsc1 == y->tsc1 && x->c0All == y->c0All &&
        x->c1All == y->c1All && x->expected == y->expected &&
        x->run.userInstr == y->run.userInstr &&
        x->run.kernelInstr == y->run.kernelInstr &&
        x->run.cycles == y->run.cycles &&
        x->run.interrupts == y->run.interrupts;
}

int
cmdOracle(const Args &a)
{
    const Workload w = parseWorkload(a.workload);
    const Sweep sweep = makeSweep(w, a.seed);
    const std::size_t n = sweep.points.size();

    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    Rng rng(mixSeed(a.seed, 0x0dac1eULL));
    const std::size_t k =
        std::min(n, static_cast<std::size_t>(a.sample));
    for (std::size_t j = 0; j < k; ++j)
        std::swap(order[j], order[j + rng.nextBelow(n - j)]);
    order.resize(k);
    std::sort(order.begin(), order.end());

    std::size_t runs = 0, mismatches = 0;
    std::string points;
    for (std::size_t i : order) {
        const HarnessConfig fast = sweep.config(i);
        HarnessConfig ref = fast;
        ref.fastForward = false;
        ref.decodeCache = false;
        ref.traceTier = false;
        const auto bench = sweep.bench(i);
        const auto seed_for = [&](int r) { return sweep.runSeed(i, r); };
        harness::ProgramCache fast_cache(1), ref_cache(1);
        const auto got = harness::measurePoint(fast_cache, fast, *bench,
                                               sweep.runs, seed_for);
        const auto want = harness::measurePoint(ref_cache, ref, *bench,
                                                sweep.runs, seed_for);
        for (std::size_t r = 0; r < got.size(); ++r) {
            ++runs;
            if (!sameMeasurement(got[r], want[r]))
                ++mismatches;
        }
        if (!points.empty())
            points += ',';
        points += std::to_string(i);
    }
    std::cout << "{\"points\":[" << points << "],\"runs\":" << runs
              << ",\"mismatches\":" << mismatches << "}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.cmd == "study" || a.cmd == "replay") {
        if (a.csv.empty() || (a.cmd == "replay" && a.spans.empty()))
            usage(a.cmd + " needs --csv" +
                  (a.cmd == "replay" ? " and --spans" : ""));
        return a.cmd == "study" ? cmdStudy(a) : cmdReplay(a);
    }
    if (a.cmd == "machines")
        return cmdMachines();
    if (a.cmd == "oracle")
        return cmdOracle(a);
    usage("unknown subcommand '" + a.cmd + "'");
}
