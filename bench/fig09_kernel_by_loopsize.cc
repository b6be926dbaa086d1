/**
 * @file
 * Figure 9 of the paper: kernel-mode instruction counts by loop size
 * (perfctr on Core 2 Duo). The benchmark causes no kernel activity
 * of its own, so every counted kernel instruction is measurement
 * error: interrupt handlers attributed to the measured thread. The
 * average grows linearly — the paper measures ~1500 kernel
 * instructions at 500k iterations, ~2500 at 1M, slope 0.00204.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/study.hh"
#include "stats/boxplot.hh"
#include "stats/regression.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;

    bench::banner("Figure 9",
                  "Kernel-mode instructions by loop size (pc on CD)");

    const std::vector<Count> sizes = {1,      25000,  50000,  75000,
                                      100000, 250000, 500000, 750000,
                                      1000000};
    core::StudySpec spec;
    spec.name = "fig09_kernel";
    spec.columns = {"loopsize"};
    spec.valueName = "kernel_instr";
    // Interrupts are infrequent: many runs per size (paper: several
    // thousand; here enough for stable means).
    spec.runs = 60;
    spec.seed = [&sizes](std::size_t i, int r) {
        return mixSeed(909, sizes[i] * 100 + static_cast<Count>(r));
    };
    spec.delta = true;
    spec.identity = "seed=909|runs=60";
    spec.obs = core::StudyObsOptions::fromEnv();
    for (Count size : sizes) {
        harness::HarnessConfig cfg;
        cfg.processor = cpu::Processor::Core2Duo;
        cfg.iface = harness::Interface::Pc;
        cfg.pattern = harness::AccessPattern::StartRead;
        cfg.mode = harness::CountingMode::Kernel;
        spec.points.push_back(
            {{std::to_string(size)}, "", cfg,
             std::make_shared<const harness::LoopBench>(size)});
    }
    const core::DataTable table = core::runStudy(spec);

    TextTable t({"loop size", "mean", "median", "q3", "max"});
    std::vector<double> xs, ys;
    std::vector<std::string> labels;
    std::vector<stats::BoxPlot> boxes;
    for (Count size : sizes) {
        const std::vector<double> deltas =
            table.filtered("loopsize", std::to_string(size)).okValues();
        xs.insert(xs.end(), deltas.size(), static_cast<double>(size));
        ys.insert(ys.end(), deltas.begin(), deltas.end());
        const auto s = stats::summarize(deltas);
        t.addRow({fmtCount(static_cast<long long>(size)),
                  fmtDouble(s.mean, 1), fmtDouble(s.median, 1),
                  fmtDouble(s.q3, 1), fmtDouble(s.max, 1)});
        labels.push_back(fmtCount(static_cast<long long>(size)));
        boxes.push_back(stats::makeBoxPlot(deltas));
    }
    t.print(std::cout);
    std::cout << '\n';
    stats::renderBoxPlots(std::cout, labels, boxes);

    const auto fit = stats::linearFit(xs, ys);
    std::cout << "\nRegression through all points:\n";
    bench::paperRef("slope (kernel instr / iteration)", 0.00204,
                    fit.slope, 5);

    const auto mean_at = [&](const char *size) {
        return stats::mean(table.filtered("loopsize", size).okValues());
    };
    bench::paperRef("mean kernel instr at 500k iters", 1500,
                    mean_at("500000"));
    bench::paperRef("mean kernel instr at 1M iters", 2500,
                    mean_at("1000000"));
    std::cout << "\nShape check: the regression slope matches the "
                 "user+kernel duration slope\nof Figure 7 for pc on "
                 "CD (the paper's crosscheck).\n";
    return 0;
}
