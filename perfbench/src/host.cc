#include "perfbench/src/host.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "perfbench/src/seams.h"

namespace perfbench {

namespace {

double TimevalS(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

uint64_t ReadWchar() {
  std::ifstream in("/proc/self/io");
  std::string key;
  uint64_t value = 0;
  while (in >> key >> value) {
    if (key == "wchar:") return value;
  }
  return 0;
}

void ReadCpuJiffies(uint64_t* steal, uint64_t* total) {
  std::ifstream in("/proc/stat");
  std::string line;
  *steal = 0;
  *total = 0;
  if (!std::getline(in, line)) return;
  std::istringstream fields(line);
  std::string cpu;
  fields >> cpu;
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user).
  uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    *total += v;
    if (i == 7) *steal = v;
  }
}

}  // namespace

HostSample SampleHost() {
  HostSample s;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  s.cpu_s = TimevalS(ru.ru_utime) + TimevalS(ru.ru_stime);
  s.wchar = ReadWchar();
  ReadCpuJiffies(&s.steal_jiffies, &s.total_jiffies);
  return s;
}

namespace {

double ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e9 * static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec);
}

}  // namespace

Calibration Calibrate() {
  constexpr int kLen = 64;
  constexpr int kBand = 8;
  static const std::array<std::array<double, kLen>, 2> series = [] {
    std::array<std::array<double, kLen>, 2> s{};
    for (int i = 0; i < kLen; ++i) {
      s[0][i] = std::sin(0.1 * i);
      s[1][i] = std::cos(0.13 * i);
    }
    return s;
  }();
  // Keeps the recurrence from being optimised away; per thread, since
  // servers' workers calibrate concurrently with the client.
  static thread_local volatile double sink = 0;
  Calibration c;
  double cpu_start = ThreadCpuNs();
  uint64_t start = NowNs();
  double prev[kLen + 1];
  double cur[kLen + 1];
  for (int rep = 0; rep < 4; ++rep) {
    std::fill(prev, prev + kLen + 1, 1e300);
    prev[0] = 0;
    for (int i = 1; i <= kLen; ++i) {
      std::fill(cur, cur + kLen + 1, 1e300);
      for (int j = std::max(1, i - kBand); j <= std::min(kLen, i + kBand); ++j) {
        double d = std::fabs(series[0][i - 1] - series[1][j - 1]);
        cur[j] = d + std::min(prev[j], std::min(prev[j - 1], cur[j - 1]));
      }
      std::copy(cur, cur + kLen + 1, prev);
    }
    sink = sink + prev[kLen];
  }
  c.wall_ns = static_cast<double>(NowNs() - start);
  c.cpu_ns = ThreadCpuNs() - cpu_start;
  return c;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(std::ceil(q * values.size()));
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

}  // namespace perfbench
