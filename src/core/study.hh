/**
 * @file
 * The study engine and the canned studies built on it. runStudy()
 * measures a list of factor points N seeded runs each and returns a
 * tidy DataTable; every sweep exhibit goes through it. The canned
 * studies reproduce the paper's experiments: the null-benchmark
 * error study (§4), the duration study (§5), and the cycle-count
 * study (§6).
 */

#ifndef PCA_CORE_STUDY_HH
#define PCA_CORE_STUDY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/datatable.hh"
#include "core/factor_space.hh"
#include "obs/hist.hh"
#include "stats/regression.hh"

namespace pca::core
{

/**
 * Observability options shared by the canned studies. All default to
 * off, leaving study output and table schemas exactly as before.
 */
struct StudyObsOptions
{
    /**
     * Append per-run error-attribution key columns (attr_pattern,
     * attr_timer, attr_io, attr_preempt) to the result table.
     */
    bool attributionColumns = false;

    /** Report progress and an ETA through the LogSink (inform). */
    bool progress = false;

    /**
     * Emit one JSONL record per factor point plus a final summary
     * through the LogSink at level "metric".
     */
    bool metrics = false;

    /**
     * Collect the full per-point distribution of the study's value
     * (error or cycles) into log-bucketed histograms — one per
     * factor point plus the pooled total, appended in point order so
     * the output is byte-identical for every thread count. Null (the
     * default) skips collection entirely. Owned by the caller; only
     * ok runs contribute (degraded rows carry no value).
     */
    obs::StudyDistributions *distributions = nullptr;

    /**
     * Parse PCA_STUDY_OBS: "all", "none"/unset, or a comma list of
     * "attr", "progress", "metrics". (Distribution sinks cannot come
     * from the environment: they need an owner.)
     */
    static StudyObsOptions fromEnv();
};

/** One factor point of a study. */
struct StudyPoint
{
    /** Key cells of the point's rows, in StudySpec::columns order. */
    std::vector<std::string> keys;

    /**
     * Name in progress/metrics records, distribution sinks and the
     * checkpoint's point digest; empty means the keys joined by '/'.
     */
    std::string label;

    harness::HarnessConfig cfg;
    std::shared_ptr<const harness::MicroBenchmark> bench;
};

/** A sweep for runStudy(): points, runs, seeds, and table shape. */
struct StudySpec
{
    /** Study name in observer records and checkpoint sections. */
    std::string name;

    /**
     * Key columns of StudyPoint::keys; "run" and, when enabled, the
     * attribution columns follow.
     */
    std::vector<std::string> columns;

    /** Value column name. */
    std::string valueName = "error";

    /**
     * Checkpoint identity: what shapes the records besides the point
     * labels and the fault plan (the seed rule, runs, ...).
     */
    std::string identity;

    std::vector<StudyPoint> points;
    int runs = 1;

    /**
     * Machine seed of run r at point i. A pure function of (i, r),
     * so results cannot depend on which worker claims a point.
     */
    std::function<std::uint64_t(std::size_t, int)> seed;

    /** Tabulate the raw c∆ instead of the error c∆ - expected. */
    bool delta = false;

    StudyObsOptions obs;
};

/**
 * Measure every point of @p spec, spec.runs runs each, on the
 * parallel worker pool with one program cache per worker. The
 * PCA_FAULTS plan applies to every point; PCA_CHECKPOINT resumes
 * completed points and records new ones. Rows come in point order,
 * then run order, so the table is byte-identical at every thread
 * count and across a resume. A run that fails after retries yields
 * a row with value NaN and a "degraded:<code>:<cause>" note.
 */
DataTable runStudy(const StudySpec &spec);

/**
 * A null-benchmark sweep over @p points, @p runs runs each, with
 * runNullErrorStudy's key columns and point labels. The caller adds
 * the seed rule and identity (and may adjust the configs).
 */
StudySpec nullSweep(std::string name,
                    const std::vector<FactorPoint> &points, int runs);

/**
 * Measure the null benchmark at every factor point, several runs
 * each. Columns: processor, interface, pattern, mode, opt, nctrs,
 * tsc, run (plus the attribution columns when enabled). Value:
 * measurement error in instructions.
 */
DataTable runNullErrorStudy(const std::vector<FactorPoint> &points,
                            int runs_per_point,
                            std::uint64_t seed = 42,
                            const StudyObsOptions &obs = {});

/** Options for the loop-duration study (§5). */
struct DurationStudyOptions
{
    std::vector<cpu::Processor> processors = cpu::allProcessors();
    std::vector<harness::Interface> interfaces =
        harness::allInterfaces();
    std::vector<Count> loopSizes = {1,      25000,  50000,  75000,
                                    100000, 250000, 500000, 750000,
                                    1000000};
    harness::CountingMode mode = harness::CountingMode::UserKernel;
    harness::AccessPattern pattern = harness::AccessPattern::StartRead;
    int runsPerSize = 5;
    std::uint64_t seed = 42;
    StudyObsOptions obs;
};

/**
 * Measure the loop benchmark across sizes. Columns: processor,
 * interface, loopsize, run. Value: instruction-count error
 * (measured - (1 + 3·size)).
 */
DataTable runDurationStudy(const DurationStudyOptions &opt);

/**
 * Per-(processor, interface) regression of error against loop size:
 * the slopes of Figures 7 and 8. Columns of the input must match
 * runDurationStudy's output.
 */
struct SlopeRow
{
    std::string processor;
    std::string iface;
    stats::LinearFit fit;
};
std::vector<SlopeRow> errorSlopes(const DataTable &duration_data);

/** Options for the cycle-count study (§6). */
struct CycleStudyOptions
{
    std::vector<cpu::Processor> processors = cpu::allProcessors();
    std::vector<harness::Interface> interfaces = {
        harness::Interface::Pm, harness::Interface::Pc};
    std::vector<Count> loopSizes = {1,      100000, 200000, 400000,
                                    600000, 800000, 1000000};
    std::vector<harness::AccessPattern> patterns =
        harness::allPatterns();
    std::vector<int> optLevels = {0, 1, 2, 3};
    int runsPerConfig = 2;
    std::uint64_t seed = 42;
    StudyObsOptions obs;
};

/**
 * Measure user+kernel *cycles* of the loop benchmark. Columns:
 * processor, interface, pattern, opt, loopsize, run. Value: measured
 * cycle count c∆.
 */
DataTable runCycleStudy(const CycleStudyOptions &opt);

} // namespace pca::core

#endif // PCA_CORE_STUDY_HH
