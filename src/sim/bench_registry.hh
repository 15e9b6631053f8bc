/**
 * @file
 * The artifact builds of the three benches whose runs the library
 * owns: Table 1, Table 2, and Figure 6. Each is a pure function from a
 * run description to a BenchArtifact. It never prints a table, writes
 * a file, or exits, so the bench binary (bench/table1_workloads.cc,
 * bench/table2_config.cc, bench/fig6_speedup.cc) prints its human
 * table from the result and hands the artifact to harnessFinish() for
 * the save + baseline gate, or for the result envelope under `--wire`.
 */

#ifndef CONOPT_SIM_BENCH_REGISTRY_HH
#define CONOPT_SIM_BENCH_REGISTRY_HH

#include <string>

#include "src/sim/baseline.hh"
#include "src/sim/request.hh"
#include "src/sim/sweep.hh"

namespace conopt::sim {

/** Table 1: a functional (emulator-only) run over the workloads of
 *  @p run's shard. The regression units are the dynamic instruction
 *  count and the memory checksum; cycles stay 0. False (with @p err)
 *  when a workload does not halt. */
bool buildTable1(const RunOptions &run, BenchArtifact *art,
                 std::string *err);

/** Table 2: no simulation. The artifact pins the fingerprint of every
 *  preset machine in @p run's shard, so a silent change to the
 *  experimental setup trips the baseline gate. */
BenchArtifact buildTable2(const RunOptions &run);

/** Figure 6: the timing sweep of every workload x base/opt under
 *  @p so. The sweep result lands in @p res for the reporter table. */
BenchArtifact buildFig6(const SweepOptions &so, SweepResult *res);

} // namespace conopt::sim

#endif // CONOPT_SIM_BENCH_REGISTRY_HH
