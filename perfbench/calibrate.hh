/**
 * @file
 * Host-speed reference for the benchmark's time metrics.
 *
 * On a shared host the simulator's wall time drifts by 20-40% over
 * minutes while the code stays the same. The reference is a fixed
 * kernel compiled into the benchmark (a byte-code interpreter over a
 * 1 MiB table, the same shape of work as the simulator's dispatch
 * loops), sampled between the timed calls on the same CPU. Its median
 * time over a run, divided by its time on a quiet development host
 * (kNominalSeconds), is the run's host slowdown. The time metrics are
 * reported at the nominal host speed: divided by that slowdown.
 *
 * The kernel does not call into the program, so a change to the
 * program moves the normalized metrics exactly as much as the raw ones.
 */

#ifndef PERFBENCH_CALIBRATE_HH
#define PERFBENCH_CALIBRATE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class HostReference
{
  public:
    /** Median kernel time on the development host (see README.md). */
    static constexpr double kNominalSeconds = 2.4e-3;

    HostReference();

    /** Run and time the kernel once. */
    void sample();

    size_t samples() const { return seconds_.size(); }
    /** Median kernel time over the samples taken. */
    double medianSeconds() const;
    /** Median kernel time / kNominalSeconds (1 with no samples). */
    double slowdown() const;

  private:
    std::vector<uint8_t> code_;
    std::vector<uint32_t> table_;
    std::vector<double> seconds_;
    uint64_t sink_ = 0; ///< keeps the kernel's result live
};

} // namespace perfbench

#endif // PERFBENCH_CALIBRATE_HH
