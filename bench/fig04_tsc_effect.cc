/**
 * @file
 * Figure 4 of the paper: on perfctr (Core 2 Duo), *enabling* the TSC
 * reduces the measurement error — counterintuitively, since it means
 * reading one more counter. The explanation: perfctr's fast
 * user-mode read path requires the TSC; without it every read is a
 * syscall. Patterns containing a read are affected; start-stop is
 * not.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "stats/boxplot.hh"

int
main()
{
    using namespace pca;
    using harness::AccessPattern;
    using harness::CountingMode;

    bench::banner("Figure 4",
                  "Using the TSC reduces error on perfctr (CD)");

    // perfctr on Core 2 Duo, TSC off and on, every run seeded
    // mixSeed(12345, run) at every point.
    const auto tsc_study = [](const char *name,
                              core::FactorSpace space, int runs) {
        space.processors({cpu::Processor::Core2Duo})
            .interfaces({harness::Interface::Pc})
            .tscSettings({false, true});
        core::StudySpec spec =
            core::nullSweep(name, space.generate(), runs);
        spec.identity = "seed=12345|runs=" + std::to_string(runs);
        spec.obs = core::StudyObsOptions::fromEnv();
        spec.seed = [](std::size_t, int r) {
            return mixSeed(12345, static_cast<std::uint64_t>(r));
        };
        return core::runStudy(spec);
    };
    const auto errors = [](const core::DataTable &t, CountingMode mode,
                           AccessPattern pat, bool tsc) {
        return t.filtered("mode", harness::countingModeName(mode))
            .filtered("pattern", harness::patternName(pat))
            .filtered("tsc", tsc ? "on" : "off")
            .okValues();
    };

    // Boxes aggregate opt levels and counter counts, like the
    // paper's 960-run boxes.
    const core::DataTable table =
        tsc_study("fig04_tsc", core::FactorSpace().counterCounts({1, 2}),
                  9);
    for (auto mode :
         {CountingMode::UserKernel, CountingMode::User}) {
        std::cout << "--- "
                  << harness::countingModeName(mode) << " mode ---\n";
        std::vector<std::string> labels;
        std::vector<stats::BoxPlot> boxes;
        for (auto pat : harness::allPatterns()) {
            for (bool tsc : {false, true}) {
                labels.push_back(
                    std::string(harness::patternName(pat)) +
                    (tsc ? " TSC-on " : " TSC-off"));
                boxes.push_back(
                    stats::makeBoxPlot(errors(table, mode, pat, tsc)));
            }
        }
        stats::renderBoxPlots(std::cout, labels, boxes);
        std::cout << '\n';
        for (std::size_t i = 0; i < labels.size(); ++i) {
            std::cout << "  " << padRight(labels[i], 22) << " median "
                      << padLeft(fmtDouble(boxes[i].summary.median, 1),
                                 9)
                      << '\n';
        }
        std::cout << '\n';
    }

    std::cout << "Paper's headline numbers (user+kernel, "
                 "read-read):\n";
    {
        const core::DataTable headline = tsc_study(
            "fig04_headline",
            core::FactorSpace()
                .patterns({AccessPattern::ReadRead})
                .modes({CountingMode::UserKernel})
                .optLevels({2}),
            15);
        const auto median_at = [&](bool tsc) {
            return stats::median(errors(headline,
                                        CountingMode::UserKernel,
                                        AccessPattern::ReadRead, tsc));
        };
        bench::paperRef("read-read median, TSC off", 1698,
                        median_at(false));
        bench::paperRef("read-read median, TSC on", 109.5,
                        median_at(true));
    }
    std::cout << "\nShape check: read-containing patterns improve "
                 "drastically with TSC on;\nstart-stop is "
                 "unaffected; start-read is less affected than "
                 "read-read.\n";
    return 0;
}
