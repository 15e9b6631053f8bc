/**
 * @file
 * Reproduces Figure 6 of the paper: speedup of continuous optimization
 * over the baseline for every SPECint, SPECfp, and mediabench workload,
 * with a suite average as the rightmost entry.
 *
 * Paper-reported shape: speedups range from 0.98 to 1.28; almost every
 * benchmark improves despite the two extra pipeline stages; mcf and
 * untoast stand out in their suites; mediabench has the largest overall
 * improvement.
 *
 * The sweep itself is sim::buildFig6 (src/sim/bench_registry.hh); this
 * binary prints the reporter table from the sweep result and applies
 * the save + baseline gate.
 */

#include "bench/bench_common.hh"
#include "src/sim/bench_registry.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);

    sim::SweepResult res;
    sim::BenchArtifact art = sim::buildFig6(hopts.sweepOptions(), &res);

    sim::TableOptions t;
    t.title = "Figure 6: Speedup of continuous optimization over baseline";
    t.baselineConfig = "base";
    t.configs = {"opt"};
    t.rows = sim::TableOptions::Rows::PerWorkloadBySuite;
    t.colWidth = 6;
    sim::TableReporter(t).print(res);
    if (hopts.run.perf)
        bench::printHostPercentiles(res);
    return bench::finish("fig6_speedup", std::move(art), hopts);
}
