/**
 * @file
 * Reproduces Table 2 of the paper: the simulated machine configuration,
 * as actually instantiated by this repository's timing model. The
 * artifact pins every preset's fingerprint (sim::buildTable2 in
 * src/sim/bench_registry.hh), so any silent change to the experimental
 * setup (Table 2 itself) trips the baseline gate.
 */

#include "bench/bench_common.hh"
#include "src/sim/bench_registry.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    bench::header("Table 2: Simulated Machine Configuration (baseline)");
    std::printf("%s", pipeline::MachineConfig::baseline().describe().c_str());
    bench::header("Table 2: with continuous optimizer");
    std::printf("%s",
                pipeline::MachineConfig::optimized().describe().c_str());

    return bench::finish("table2_config", sim::buildTable2(hopts.run),
                         hopts);
}
