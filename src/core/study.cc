#include "core/study.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <functional>
#include <limits>
#include <mutex>

#include "core/checkpoint.hh"
#include "harness/microbench.hh"
#include "harness/session.hh"
#include "kernel/faults.hh"
#include "obs/attribution.hh"
#include "obs/spc.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/random.hh"
#include "support/status.hh"
#include "support/strutil.hh"

namespace pca::core
{

using harness::HarnessConfig;
using harness::Interface;
using harness::LoopBench;
using harness::Measurement;
using harness::NullBench;
using harness::ProgramCache;

StudyObsOptions
StudyObsOptions::fromEnv()
{
    StudyObsOptions opt;
    const char *spec = std::getenv("PCA_STUDY_OBS");
    if (!spec || !*spec)
        return opt;
    const std::string s(spec);
    if (s == "none")
        return opt;
    if (s == "all") {
        opt.attributionColumns = opt.progress = opt.metrics = true;
        return opt;
    }
    for (const std::string &item : split(s, ',')) {
        if (item == "attr")
            opt.attributionColumns = true;
        else if (item == "progress")
            opt.progress = true;
        else if (item == "metrics")
            opt.metrics = true;
        else if (!item.empty())
            pca_warn("PCA_STUDY_OBS: unknown option '", item, "'");
    }
    return opt;
}

namespace
{

/**
 * Progress/ETA reporting and JSONL metrics for a study's point loop.
 * One instance per study invocation; everything is inert unless the
 * corresponding StudyObsOptions flag is set.
 *
 * Thread-safe: under the parallel study engine pointDone() is called
 * from worker threads as points complete (completion order, not point
 * order — only the log stream varies with thread count, never the
 * study tables). One mutex orders the updates, each record is a
 * single LogSink message (so lines cannot tear), and the reported
 * ETA is clamped to be non-increasing so out-of-order completions
 * don't make it bounce upward.
 */
class StudyObserver
{
  public:
    StudyObserver(const StudyObsOptions &opt, std::string study,
                  std::size_t total_points)
        : opt(opt), study(std::move(study)), totalPoints(total_points),
          start(std::chrono::steady_clock::now())
    {
    }

    /** Report one finished factor point and its per-run errors. */
    void
    pointDone(const std::string &label,
              const std::vector<double> &values)
    {
        std::lock_guard<std::mutex> lock(mtx);
        ++donePoints;
        totalRuns += values.size();
        if (opt.metrics && !values.empty()) {
            double lo = std::numeric_limits<double>::infinity();
            double hi = -lo, sum = 0;
            for (double v : values) {
                lo = std::min(lo, v);
                hi = std::max(hi, v);
                sum += v;
            }
            pca_metric("{\"study\":\"", study, "\",\"point\":\"",
                       label, "\",\"runs\":", values.size(),
                       ",\"mean\":",
                       sum / static_cast<double>(values.size()),
                       ",\"min\":", lo, ",\"max\":", hi, "}");
        }
        if (opt.progress) {
            const double frac = totalPoints == 0
                ? 1.0
                : static_cast<double>(donePoints) /
                    static_cast<double>(totalPoints);
            const double elapsed = elapsedSec();
            double eta = frac > 0
                ? elapsed * (1.0 - frac) / frac
                : 0.0;
            eta = std::min(eta, lastEta);
            lastEta = eta;
            pca_inform(study, ": ", donePoints, "/", totalPoints,
                       " points (", fmtDouble(100.0 * frac, 1),
                       "%), elapsed ", fmtDouble(elapsed, 1),
                       "s, eta ", fmtDouble(eta, 1), "s");
        }
    }

    /** Emit the end-of-study summary record. */
    void
    finish()
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (opt.metrics)
            pca_metric("{\"study\":\"", study,
                       "\",\"summary\":true,\"points\":", donePoints,
                       ",\"runs\":", totalRuns, ",\"elapsed_s\":",
                       fmtDouble(elapsedSec(), 3), "}");
    }

  private:
    double
    elapsedSec() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    }

    StudyObsOptions opt;
    std::string study;
    std::size_t totalPoints;
    std::size_t donePoints = 0;
    std::size_t totalRuns = 0;
    double lastEta = std::numeric_limits<double>::infinity();
    std::chrono::steady_clock::time_point start;
    std::mutex mtx;
};

/** The four attribution key columns, in table order. */
void
appendAttrColumns(std::vector<std::string> &cols)
{
    cols.insert(cols.end(),
                {"attr_pattern", "attr_timer", "attr_io",
                 "attr_preempt"});
}

void
appendAttrKeys(std::vector<std::string> &keys,
               const obs::ErrorAttribution &a)
{
    keys.push_back(std::to_string(a.patternOverhead));
    keys.push_back(std::to_string(a.timerInterrupts));
    keys.push_back(std::to_string(a.ioInterrupts));
    keys.push_back(std::to_string(a.preemption));
}

/**
 * Row annotation for a factor point whose run failed even after the
 * session's retries: "degraded:<code>:<cause>". Commas and newlines
 * in the cause are flattened so the note stays one CSV cell.
 */
std::string
degradedNote(const Status &st)
{
    std::string out = "degraded:";
    out += statusCodeName(st.code());
    out += ':';
    for (char c : st.message())
        out += (c == ',' || c == '\n') ? ';' : c;
    return out;
}

constexpr double degradedValue =
    std::numeric_limits<double>::quiet_NaN();

/**
 * One point's measurements in the shape the table (and the
 * checkpoint) consumes: exactly the value, attribution cells, and
 * degraded note each row will carry, nothing else. Emission below
 * reads only this — which is what makes a checkpoint-resumed point
 * byte-identical to a freshly measured one. @p use_delta selects the
 * cycle study's raw c∆ over the error studies' c∆ - expected.
 */
PointRecord
toRecord(const std::vector<StatusOr<Measurement>> &ms, bool use_delta,
         bool with_attr)
{
    PointRecord rec;
    rec.reserve(ms.size());
    for (const auto &m : ms) {
        CheckpointRun r;
        if (m.ok()) {
            r.ok = true;
            r.value = static_cast<double>(use_delta ? m->delta()
                                                    : m->error());
            if (with_attr)
                appendAttrKeys(r.attr, m->attribution);
        } else {
            r.value = degradedValue;
            r.note = degradedNote(m.status());
            if (with_attr)
                appendAttrKeys(r.attr, obs::ErrorAttribution{});
        }
        rec.push_back(std::move(r));
    }
    return rec;
}

/** The point's successful values, in run order. */
std::vector<double>
okValues(const PointRecord &rec)
{
    std::vector<double> out;
    out.reserve(rec.size());
    for (const CheckpointRun &r : rec)
        if (r.ok)
            out.push_back(r.value);
    return out;
}

/** Log-bucketed histogram of the point's successful values. */
obs::LogHistogram
histOf(const PointRecord &rec)
{
    obs::LogHistogram h;
    for (const CheckpointRun &r : rec)
        if (r.ok)
            h.add(static_cast<SCount>(r.value));
    return h;
}

/**
 * One program cache per worker. Caches (and the sessions inside
 * them) are stateful and not thread-safe; the study engine partitions
 * whole factor points across workers, so a private cache per worker
 * gives lock-free reuse. Results cannot depend on the partition:
 * a cache hit and a fresh build are result-identical.
 *
 * A point's runs are consecutive on one worker, so one live session
 * per worker keeps every reuse; holding more only keeps cold
 * machines alive, which halved single-thread throughput on the
 * exhibits' null sweeps.
 */
std::vector<ProgramCache>
makeWorkerCaches()
{
    std::vector<ProgramCache> caches;
    for (int w = 0; w < std::max(1, defaultThreadCount()); ++w)
        caches.emplace_back(1);
    return caches;
}

/** The point's label, defaulting to its keys joined by '/'. */
std::string
labelOf(const StudyPoint &p)
{
    return p.label.empty() ? join(p.keys, "/") : p.label;
}

/**
 * FNV-1a over every point label: pins the swept factor space inside
 * the checkpoint identity without recording each label.
 */
std::string
labelsDigest(const std::vector<StudyPoint> &points)
{
    std::string labels;
    for (const StudyPoint &p : points)
        labels += labelOf(p);
    return fnv1aHex(labels);
}

/**
 * The resilient point loop behind runStudy.
 *
 * Fans the points over the worker pool. With PCA_CHECKPOINT set,
 * points completed by a prior invocation load from the checkpoint
 * and are not re-measured, each finished point is durably appended
 * as it completes, and SIGINT turns into cooperative cancellation:
 * workers drain, the checkpoint stays consistent, and the Cancelled
 * error propagates to the caller. Every point's retry allowance is
 * the policy's deterministic per-point share, so a study-wide budget
 * can never make results depend on worker timing. The returned
 * records are in point order and identical whether any prefix was
 * resumed, at any thread count.
 */
std::vector<PointRecord>
runPoints(const StudySpec &spec, const std::string &identity,
          const kernel::FaultPlan &fault_plan, StudyObserver &observer)
{
    const std::string &study = spec.name;
    const std::size_t n = spec.points.size();
    const bool with_attr = spec.obs.attributionColumns;
    std::vector<PointRecord> slots(n);
    auto ckpt = StudyCheckpoint::openFromEnv(study, identity, n);
    std::vector<std::size_t> todo;
    todo.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        // A record of another shape (run count, attribution cells)
        // belongs to a differently configured sweep: re-measure.
        const PointRecord *done = ckpt ? ckpt->get(i) : nullptr;
        if (done && done->size() == static_cast<std::size_t>(spec.runs) &&
            done->front().attr.size() == (with_attr ? 4u : 0u))
            slots[i] = *done;
        else
            todo.push_back(i);
    }
    if (ckpt) {
        installSigintCancel();
        if (todo.size() < n)
            pca_inform(study, ": resuming from ", ckpt->path(), " (",
                       n - todo.size(), "/", n,
                       " points already complete)");
    }

    std::vector<ProgramCache> caches = makeWorkerCaches();
    try {
        parallelFor(todo.size(), [&](std::size_t t, int worker) {
            const std::size_t i = todo[t];
            const StudyPoint &p = spec.points[i];
            HarnessConfig cfg = p.cfg;
            cfg.faults = fault_plan;
            slots[i] = toRecord(
                harness::measurePoint(
                    caches[static_cast<std::size_t>(worker)], cfg,
                    *p.bench, spec.runs,
                    [&](int r) { return spec.seed(i, r); },
                    fault_plan.retry.effectivePointBudget(n, i)),
                spec.delta, with_attr);
            if (ckpt)
                ckpt->record(i, slots[i]);
            observer.pointDone(labelOf(p), okValues(slots[i]));
        });
    } catch (const StatusError &e) {
        if (e.status().code() == StatusCode::Cancelled && ckpt)
            pca_warn(study, ": cancelled with ",
                     ckpt->completedCount(), "/", n,
                     " points checkpointed in ", ckpt->path(),
                     "; rerun with PCA_CHECKPOINT set to resume");
        throw;
    }
    return slots;
}

/**
 * Legacy serial numbering of the loop studies: one tick per run, in
 * point order. Preserved exactly so their tables match the
 * pre-parallel engine bit for bit.
 */
std::function<std::uint64_t(std::size_t, int)>
loopSeeds(std::uint64_t seed, int runs)
{
    return [seed, runs](std::size_t i, int r) {
        return mixSeed(seed, static_cast<std::uint64_t>(i) *
                                     static_cast<std::uint64_t>(runs) +
                                 static_cast<std::uint64_t>(r) + 1);
    };
}

} // namespace

DataTable
runStudy(const StudySpec &spec)
{
    pca_assert(spec.runs >= 1);
    const bool with_attr = spec.obs.attributionColumns;
    std::vector<std::string> cols = spec.columns;
    cols.push_back("run");
    if (with_attr)
        appendAttrColumns(cols);
    DataTable table(cols, spec.valueName);

    const kernel::FaultPlan fault_plan = kernel::FaultPlan::fromEnv();
    const std::string identity = detail::cat(
        spec.identity, "|pts=", labelsDigest(spec.points),
        "|faults=", fault_plan.fingerprint());
    StudyObserver observer(spec.obs, spec.name, spec.points.size());
    const std::vector<PointRecord> slots =
        runPoints(spec, identity, fault_plan, observer);

    // Point-order append => thread-count-independent output.
    if (spec.obs.distributions)
        for (std::size_t i = 0; i < slots.size(); ++i)
            spec.obs.distributions->addPoint(labelOf(spec.points[i]),
                                             histOf(slots[i]));

    for (std::size_t i = 0; i < slots.size(); ++i) {
        for (int r = 0; r < spec.runs; ++r) {
            const CheckpointRun &run =
                slots[i][static_cast<std::size_t>(r)];
            std::vector<std::string> keys = spec.points[i].keys;
            keys.push_back(std::to_string(r));
            keys.insert(keys.end(), run.attr.begin(), run.attr.end());
            if (run.ok) {
                table.add(std::move(keys), run.value);
            } else {
                PCA_SPC_INC(DegradedPoints);
                table.add(std::move(keys), run.value, run.note);
            }
        }
    }
    observer.finish();
    return table;
}

StudySpec
nullSweep(std::string name, const std::vector<FactorPoint> &points,
          int runs)
{
    StudySpec spec;
    spec.name = std::move(name);
    spec.columns = {"processor", "interface", "pattern", "mode",
                    "opt",       "nctrs",     "tsc"};
    spec.runs = runs;
    const auto bench = std::make_shared<const NullBench>();
    spec.points.reserve(points.size());
    for (const FactorPoint &p : points)
        spec.points.push_back(
            {{cpu::processorCode(p.processor),
              harness::interfaceCode(p.iface),
              harness::patternName(p.pattern),
              harness::countingModeName(p.mode),
              "O" + std::to_string(p.optLevel),
              std::to_string(p.numCounters), p.tsc ? "on" : "off"},
             detail::cat(cpu::processorCode(p.processor), "/",
                         harness::interfaceCode(p.iface), "/",
                         harness::patternName(p.pattern), "/",
                         harness::countingModeName(p.mode), "/O",
                         p.optLevel, "/n", p.numCounters, "/tsc=",
                         p.tsc ? "on" : "off"),
             p.toHarnessConfig(0), bench});
    return spec;
}

DataTable
runNullErrorStudy(const std::vector<FactorPoint> &points,
                  int runs_per_point, std::uint64_t seed,
                  const StudyObsOptions &obs_opt)
{
    StudySpec spec = nullSweep("null_error", points, runs_per_point);
    spec.identity =
        detail::cat("seed=", seed, "|runs=", runs_per_point,
                    "|attr=", obs_opt.attributionColumns ? 1 : 0);
    spec.seed = [seed](std::size_t i, int r) {
        return mixSeed(seed, (i + 1) * 1000 +
                                 static_cast<std::uint64_t>(r));
    };
    spec.obs = obs_opt;
    return runStudy(spec);
}

DataTable
runDurationStudy(const DurationStudyOptions &opt)
{
    StudySpec spec;
    spec.name = "duration";
    spec.columns = {"processor", "interface", "loopsize"};
    spec.identity = detail::cat(
        "seed=", opt.seed, "|runs=", opt.runsPerSize,
        "|pat=", harness::patternName(opt.pattern),
        "|mode=", harness::countingModeName(opt.mode),
        "|attr=", opt.obs.attributionColumns ? 1 : 0);
    spec.runs = opt.runsPerSize;
    spec.seed = loopSeeds(opt.seed, opt.runsPerSize);
    spec.obs = opt.obs;
    for (cpu::Processor proc : opt.processors)
        for (Interface iface : opt.interfaces) {
            if (!harness::patternSupported(iface, opt.pattern))
                continue;
            for (Count size : opt.loopSizes) {
                HarnessConfig cfg;
                cfg.processor = proc;
                cfg.iface = iface;
                cfg.pattern = opt.pattern;
                cfg.mode = opt.mode;
                spec.points.push_back(
                    {{cpu::processorCode(proc),
                      harness::interfaceCode(iface),
                      std::to_string(size)},
                     detail::cat(cpu::processorCode(proc), "/",
                                 harness::interfaceCode(iface),
                                 "/size=", size),
                     cfg, std::make_shared<const LoopBench>(size)});
            }
        }
    return runStudy(spec);
}

std::vector<SlopeRow>
errorSlopes(const DataTable &duration_data)
{
    std::vector<SlopeRow> out;
    for (const auto &group :
         duration_data.groupBy({"processor", "interface"})) {
        // Rebuild (size, error) pairs for this group.
        std::vector<double> xs, ys;
        const auto proc_idx = duration_data.columnIndex("processor");
        const auto if_idx = duration_data.columnIndex("interface");
        const auto size_idx = duration_data.columnIndex("loopsize");
        for (const auto &row : duration_data.rows()) {
            if (row.keys[proc_idx] != group.keys[0] ||
                row.keys[if_idx] != group.keys[1])
                continue;
            xs.push_back(std::stod(row.keys[size_idx]));
            ys.push_back(row.value);
        }
        if (xs.size() < 2)
            continue;
        out.push_back(
            {group.keys[0], group.keys[1], stats::linearFit(xs, ys)});
    }
    return out;
}

DataTable
runCycleStudy(const CycleStudyOptions &opt)
{
    StudySpec spec;
    spec.name = "cycle";
    spec.columns = {"processor", "interface", "pattern", "opt",
                    "loopsize"};
    spec.valueName = "cycles";
    spec.identity =
        detail::cat("seed=", opt.seed, "|runs=", opt.runsPerConfig);
    spec.runs = opt.runsPerConfig;
    spec.seed = loopSeeds(opt.seed, opt.runsPerConfig);
    spec.delta = true;
    // The cycle table has no attribution columns (it measures raw
    // c∆, not error); the observer's other channels apply as-is.
    spec.obs = opt.obs;
    spec.obs.attributionColumns = false;
    for (cpu::Processor proc : opt.processors)
        for (Interface iface : opt.interfaces)
            for (harness::AccessPattern pat : opt.patterns) {
                if (!harness::patternSupported(iface, pat))
                    continue;
                for (int opt_level : opt.optLevels)
                    for (Count size : opt.loopSizes) {
                        HarnessConfig cfg;
                        cfg.processor = proc;
                        cfg.iface = iface;
                        cfg.pattern = pat;
                        cfg.optLevel = opt_level;
                        cfg.mode = harness::CountingMode::UserKernel;
                        cfg.primaryEvent =
                            cpu::EventType::CpuClkUnhalted;
                        spec.points.push_back(
                            {{cpu::processorCode(proc),
                              harness::interfaceCode(iface),
                              harness::patternName(pat),
                              "O" + std::to_string(opt_level),
                              std::to_string(size)},
                             detail::cat(cpu::processorCode(proc), "/",
                                         harness::interfaceCode(iface),
                                         "/", harness::patternName(pat),
                                         "/O", opt_level,
                                         "/size=", size),
                             cfg,
                             std::make_shared<const LoopBench>(size)});
                    }
            }
    return runStudy(spec);
}

} // namespace pca::core
