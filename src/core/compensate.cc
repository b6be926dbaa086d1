#include "core/compensate.hh"

#include "harness/microbench.hh"
#include "harness/session.hh"
#include "stats/descriptive.hh"
#include "stats/regression.hh"
#include "support/logging.hh"
#include "support/random.hh"

namespace pca::core
{

Compensator
Compensator::calibrate(const harness::HarnessConfig &cfg)
{
    return calibrate(cfg, Options{});
}

Compensator
Compensator::calibrate(const harness::HarnessConfig &cfg,
                       const Options &opt)
{
    pca_assert(opt.nullRuns >= 3);
    pca_assert(opt.loopSizes.size() >= 2);

    // One cached program per benchmark, rebooted per run; a run that
    // fails after the session's retries throws, as measure() does.
    harness::ProgramCache cache(1);
    const auto runs_of = [&](const harness::MicroBenchmark &bench,
                             int runs, Count seed_base) {
        return harness::measurePoint(cache, cfg, bench, runs, [&](int r) {
            return mixSeed(opt.seed, seed_base + static_cast<Count>(r));
        });
    };

    // Fixed overhead: median null-benchmark error.
    std::vector<double> null_errs;
    for (const auto &m : runs_of(harness::NullBench{}, opt.nullRuns, 0))
        null_errs.push_back(static_cast<double>(m->error()));
    const double fixed = stats::median(null_errs);

    // Variable overhead: error vs true instruction count.
    std::vector<double> xs, ys;
    for (Count size : opt.loopSizes) {
        const harness::LoopBench loop(size);
        for (const auto &m : runs_of(loop, opt.runsPerSize, size * 31)) {
            xs.push_back(
                static_cast<double>(loop.expectedInstructions()));
            ys.push_back(static_cast<double>(m->error()) - fixed);
        }
    }
    const auto fit = stats::linearFit(xs, ys);
    // Clamp tiny negative slopes (user-mode noise) to zero.
    const double slope = fit.slope > 0 ? fit.slope : 0.0;
    return Compensator(fixed, slope);
}

double
Compensator::compensate(SCount delta) const
{
    return (static_cast<double>(delta) - fixed) / (1.0 + slope);
}

} // namespace pca::core
