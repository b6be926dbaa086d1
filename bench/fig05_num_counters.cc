/**
 * @file
 * Figure 5 of the paper: how the measurement error depends on the
 * number of measured counter registers (Athlon 64 X2 / K8). perfmon
 * pays ~100 extra user+kernel instructions per counter on read paths
 * (its kernel copies PMDs one at a time); perfctr pays ~13 (one more
 * RDPMC plus 64-bit arithmetic in the fast read); user-mode errors
 * on perfmon are independent of the counter count.
 */

#include <iostream>

#include "bench_util.hh"
#include "core/factor_space.hh"
#include "core/study.hh"
#include "support/table.hh"

int
main()
{
    using namespace pca;
    using harness::AccessPattern;
    using harness::CountingMode;
    using harness::Interface;

    bench::banner("Figure 5",
                  "Error depends on the number of counters (K8)");

    core::StudySpec spec = core::nullSweep(
        "fig05_counters",
        core::FactorSpace()
            .processors({cpu::Processor::AthlonX2})
            .interfaces({Interface::Pm, Interface::Pc})
            .optLevels({2})
            .counterCounts({1, 2, 3, 4})
            .generate(),
        9);
    spec.identity = "seed=12345|runs=9";
    spec.obs = core::StudyObsOptions::fromEnv();
    spec.seed = [](std::size_t, int r) {
        return mixSeed(12345, static_cast<std::uint64_t>(r));
    };
    const core::DataTable table = core::runStudy(spec);
    const auto median_for = [&](Interface iface, CountingMode mode,
                                AccessPattern pat, int nc) {
        return stats::median(
            table.filtered("interface", harness::interfaceCode(iface))
                .filtered("mode", harness::countingModeName(mode))
                .filtered("pattern", harness::patternName(pat))
                .filtered("nctrs", std::to_string(nc))
                .okValues());
    };

    for (auto iface : {Interface::Pm, Interface::Pc}) {
        for (auto mode :
             {CountingMode::UserKernel, CountingMode::User}) {
            std::cout << "--- K8, " << harness::interfaceCode(iface)
                      << ", " << harness::countingModeName(mode)
                      << " ---\n";
            TextTable t({"pattern", "1 ctr", "2 ctrs", "3 ctrs",
                         "4 ctrs"});
            for (auto pat : harness::allPatterns()) {
                std::vector<std::string> row{
                    harness::patternName(pat)};
                for (int nc = 1; nc <= 4; ++nc)
                    row.push_back(fmtDouble(
                        median_for(iface, mode, pat, nc), 1));
                t.addRow(row);
            }
            t.print(std::cout);
            std::cout << '\n';
        }
    }

    // The same points, runs and seeds as the sweep above.
    std::cout << "Paper's headline numbers:\n";
    const auto rr = AccessPattern::ReadRead;
    const auto uk = CountingMode::UserKernel;
    bench::paperRef("pm read-read u+k, 1 register", 573,
                    median_for(Interface::Pm, uk, rr, 1));
    bench::paperRef("pm read-read u+k, 4 registers", 909,
                    median_for(Interface::Pm, uk, rr, 4));
    bench::paperRef("pc read-read, 1 register", 84,
                    median_for(Interface::Pc, uk, rr, 1));
    bench::paperRef("pc read-read, 4 registers", 125,
                    median_for(Interface::Pc, uk, rr, 4));
    std::cout << "\nShape check: pm user+kernel grows ~100/counter "
                 "on read paths; pm user-mode\nis flat; pc read-read "
                 "is identical in user and user+kernel mode (the\n"
                 "fast read never enters the kernel).\n";
    return 0;
}
