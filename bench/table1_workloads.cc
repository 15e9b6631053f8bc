/**
 * @file
 * Reproduces Table 1 of the paper: the experimental workload and its
 * dynamic instruction counts. The paper simulated the real SPEC2000 and
 * mediabench binaries (96M-1000M instructions); this repository runs
 * scaled synthetic kernels, so the table reports both the paper's count
 * and ours, plus the checksum that pins functional behaviour.
 *
 * The run itself (a functional emulator pass over every workload) is
 * sim::buildTable1 (src/sim/bench_registry.hh); this binary prints the
 * human table from the built artifact and applies the save + baseline
 * gate.
 */

#include <cinttypes>

#include "bench/bench_common.hh"
#include "src/sim/bench_registry.hh"

using namespace conopt;

int
main(int argc, char **argv)
{
    const bench::HarnessOptions hopts = bench::harnessInit(argc, argv);
    bench::header("Table 1: Experimental Workload");
    std::printf("%-10s %-12s %38s %12s %10s\n", "App.", "Type", "Name",
                "Paper insts", "Our insts");

    sim::BenchArtifact art;
    std::string err;
    if (!sim::buildTable1(hopts.run, &art, &err)) {
        std::printf("%s\n", err.c_str());
        return 1;
    }
    for (const auto &j : art.jobs) {
        const auto *w = workloads::findWorkload(j.workload);
        std::printf("%-10s %-12s %38s %10uM %10" PRIu64
                    "  (checksum 0x%" PRIx64 ")\n",
                    j.workload.c_str(), j.suite.c_str(),
                    w->fullName.c_str(), w->paperInstsM, j.instructions,
                    j.checksum);
    }
    return bench::finish("table1_workloads", std::move(art), hopts);
}
