/**
 * @file
 * Related-work reproduction (paper §9, Moore's counting-mode cost
 * study): the cycle cost of start/stop and of read, per platform.
 * Moore reports one number per platform for PAPI on Linux/x86 (3524
 * cycles for start/stop, 1299 for read); the paper's §9 criticism is
 * that a single number hides the configuration and run-to-run
 * spread — which this bench makes visible by reporting the cost for
 * every interface and processor, with min/median over repeats.
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
    using harness::Interface;

    bench::banner("Related work (Moore)",
                  "Cycle cost of counter accesses");

    // Cycle c-delta of the null benchmark = cycles burnt by the
    // access calls inside the measured window: start/stop everywhere,
    // read pairs where the interface supports them.
    core::StudySpec spec = core::nullSweep(
        "moore_cycle_cost",
        core::FactorSpace()
            .patterns({AccessPattern::StartStop, AccessPattern::ReadRead})
            .modes({harness::CountingMode::UserKernel})
            .optLevels({2})
            .generate(),
        7);
    for (core::StudyPoint &p : spec.points)
        p.cfg.primaryEvent = cpu::EventType::CpuClkUnhalted;
    spec.valueName = "cycles";
    spec.delta = true;
    spec.identity = "seed=606|runs=7";
    spec.obs = core::StudyObsOptions::fromEnv();
    spec.seed = [](std::size_t, int r) {
        return 606 + static_cast<std::uint64_t>(r);
    };
    const core::DataTable table = core::runStudy(spec);
    const auto cycle_cost = [&](cpu::Processor proc, Interface iface,
                                AccessPattern pat) {
        return stats::summarize(
            table.filtered("processor", cpu::processorCode(proc))
                .filtered("interface", harness::interfaceCode(iface))
                .filtered("pattern", harness::patternName(pat))
                .okValues());
    };

    for (auto proc : cpu::allProcessors()) {
        std::cout << "--- " << cpu::microArch(proc).name << " ---\n";
        TextTable t({"interface", "start/stop cyc (med)",
                     "read pair cyc (med)", "start/stop min",
                     "read min"});
        for (auto iface : harness::allInterfaces()) {
            const auto ss =
                cycle_cost(proc, iface, AccessPattern::StartStop);
            std::string rr_med = "n/a", rr_min = "n/a";
            if (harness::patternSupported(iface,
                                          AccessPattern::ReadRead)) {
                const auto rr =
                    cycle_cost(proc, iface, AccessPattern::ReadRead);
                rr_med = fmtDouble(rr.median, 0);
                rr_min = fmtDouble(rr.min, 0);
            }
            t.addRow({harness::interfaceCode(iface),
                      fmtDouble(ss.median, 0), rr_med,
                      fmtDouble(ss.min, 0), rr_min});
        }
        t.print(std::cout);
        std::cout << '\n';
    }

    // Moore's Linux/x86 PAPI numbers for comparison.
    const auto ss = cycle_cost(cpu::Processor::PentiumD,
                               Interface::PLpc,
                               AccessPattern::StartStop);
    const auto rr = cycle_cost(cpu::Processor::PentiumD,
                               Interface::PLpc,
                               AccessPattern::ReadRead);
    std::cout << "Moore's single numbers (PAPI, Linux/x86, unnamed "
                 "processor):\n";
    bench::paperRef("start/stop cycles", 3524, ss.median);
    bench::paperRef("read cycles", 1299, rr.median);
    std::cout << "\nShape check: costs lie in the same range, but "
                 "vary by interface,\nprocessor, and run — the "
                 "paper's point about single-number reports.\n";
    return 0;
}
