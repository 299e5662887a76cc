// Process and host readings taken around a measured phase.
#ifndef PERFBENCH_HOST_H_
#define PERFBENCH_HOST_H_

#include <cstdint>
#include <vector>

namespace perfbench {

struct HostSample {
  double cpu_s = 0;            // getrusage(RUSAGE_SELF): all threads
  uint64_t wchar = 0;          // /proc/self/io: bytes passed to write()
  uint64_t steal_jiffies = 0;  // /proc/stat, all CPUs
  uint64_t total_jiffies = 0;
};

HostSample SampleHost();

/// One call of a fixed, benchmark-owned compute kernel (a banded DTW
/// recurrence over constant data, no library code): its wall and
/// thread-CPU time say how fast the calling thread's vCPU runs right now.
struct Calibration {
  double wall_ns = 0;
  double cpu_ns = 0;
};
Calibration Calibrate();

/// The kernel's wall and CPU time on an uncontended vCPU of the 4-vCPU
/// x86 VM the benchmark was tuned on.  `ref_*` metrics scale a measured
/// time by this over the kernel time measured next to it.
constexpr double kRefKernelNs = 16000;

/// Peak resident set size of the process so far, in MB.
double PeakRssMb();

/// a / b, or 0 when nothing was counted.
inline double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

/// Nearest-rank quantile (an observed sample); 0 for an empty input.
double Quantile(std::vector<double> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_HOST_H_
