// perfbench: one workload, one seed, one mode.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scale tiny] [--scratch <dir>]
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// makes an untraced run and then a traced one and prints the per-layer
// metrics.  Set-up runs three times and setup_s is the median.  The
// last line of stdout is one JSON object; the exit code is non-zero when
// any answer is wrong.
#include <malloc.h>
#include <unistd.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/host.h"
#include "src/distance/simd/dispatch.h"

namespace perfbench {
namespace {

constexpr int kSetups = 3;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Ms(uint64_t ns, double per) {
  return 1e-6 * Ratio(static_cast<double>(ns), per);
}

double KernelMedianNs(const RunResult& r) {
  std::vector<double> wall;
  for (const Calibration& c : r.cal) wall.push_back(c.wall_ns);
  return Quantile(wall, 0.5);
}

double Steal(const RunResult& r) {
  return Ratio(static_cast<double>(r.after.steal_jiffies - r.before.steal_jiffies),
               static_cast<double>(r.after.total_jiffies - r.before.total_jiffies));
}

std::vector<Metric> EndToEnd(const RunResult& r, double recall,
                             double setup_s, double peak_rss_mb) {
  double ops = static_cast<double>(r.reads + r.writes);
  return {
      {"ref_latency_p50_ms", Quantile(RefScaled(r.read_ms, r.cal), 0.5), "ms"},
      {"ref_cpu_ms_per_op", RefCpuMsPerOp(r), "ms"},
      {"dx_per_query",
       Ratio(static_cast<double>(r.read_dx), static_cast<double>(r.reads)),
       "count"},
      {"recall_at_k", recall, "fraction"},
      {"ok_frac", 1.0 - Ratio(static_cast<double>(r.failed), ops), "fraction"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"setup_s", setup_s, "s"},
  };
}

std::vector<Metric> PerLayer(const RunResult& untraced, const RunResult& t) {
  const LayerTotals& L = t.layers;
  double reads = static_cast<double>(t.reads);
  uint64_t dx_calls = L.calls[kDxEmbed] + L.calls[kDxRefine];
  double stats_candidates = 0;
  for (const ReadAnswer& a : t.answers) stats_candidates += a.stats_candidates;
  auto value = [&](const char* name) {
    auto it = t.layer_values.find(name);
    return it == t.layer_values.end() ? 0.0 : it->second;
  };
  return {
      {"core.embed_ms", Ms(L.incl_ns[kEmbed], reads), "ms"},
      {"core.embed_dx", Ratio(static_cast<double>(L.calls[kDxEmbed]), reads),
       "count"},
      {"distance.dx_us",
       1e-3 * Ratio(static_cast<double>(L.incl_ns[kDxEmbed] +
                                        L.incl_ns[kDxRefine]),
                    static_cast<double>(dx_calls)),
       "us"},
      {"retrieval.filter_ms", Ms(L.incl_ns[kFilter], reads), "ms"},
      {"retrieval.filter_rows",
       Ratio(static_cast<double>(t.filter_rows), reads), "rows"},
      {"retrieval.filter_pruned_frac",
       Ratio(static_cast<double>(t.filter_pruned),
             static_cast<double>(t.filter_rows)),
       "fraction"},
      {"retrieval.filter_bytes",
       Ratio(static_cast<double>(t.filter_bytes), reads), "bytes"},
      {"retrieval.refine_ms",
       Ms(L.self_ns[kRefine] + L.incl_ns[kDxRefine], reads), "ms"},
      {"retrieval.refine_dx",
       Ratio(static_cast<double>(L.calls[kDxRefine]), reads), "count"},
      {"retrieval.self_ms", Ms(L.self_ns[kEngine], reads), "ms"},
      {"serving.shard_scan_ms", Ms(L.incl_ns[kShardScan], reads), "ms"},
      {"serving.merge_ms", Ms(L.self_ns[kMerge], reads), "ms"},
      {"serving.useful_candidates_frac",
       Ratio(stats_candidates, static_cast<double>(t.listed_candidates)),
       "fraction"},
      {"server.queue_ms", value("server.queue_ms"), "ms"},
      {"server.exec_ms", value("server.exec_ms"), "ms"},
      {"server.batch_size", value("server.batch_size"), "count"},
      {"server.refused_frac", value("server.refused_frac"), "fraction"},
      {"net.wire_ms", value("net.wire_ms"), "ms"},
      {"net.wire_bytes_per_query", value("net.wire_bytes_per_query"),
       "bytes"},
      {"persist.write_p50_ms", Quantile(untraced.write_ms, 0.5), "ms"},
      {"persist.wal_ms", value("persist.wal_ms"), "ms"},
      {"persist.bytes_per_write", value("persist.bytes_per_write"), "bytes"},
      {"persist.snapshots", value("persist.snapshots"), "count"},
      {"obs.audits", value("obs.audits"), "count"},
      {"trace.coverage_frac", 1.0 - Ratio(t.unattributed_ns, t.e2e_ns),
       "fraction"},
      {"trace.overhead_frac",
       Ratio(Quantile(RefScaled(t.read_ms, t.cal), 0.5),
             Quantile(RefScaled(untraced.read_ms, untraced.cal), 0.5)) -
           1.0,
       "fraction"},
      {"host.steal_frac", Steal(untraced), "fraction"},
      {"host.wall_p50_ms", Quantile(untraced.read_ms, 0.5), "ms"},
      {"host.wall_p99_ms", Quantile(untraced.read_ms, 0.99), "ms"},
      {"host.cpu_ms_per_op",
       1e3 * Ratio(untraced.after.cpu_s - untraced.before.cpu_s -
                       1e-9 * untraced.cal_cpu_ns,
                   static_cast<double>(untraced.reads + untraced.writes)),
       "ms"},
      {"host.vcpu_slowdown", Ratio(KernelMedianNs(untraced), kRefKernelNs),
       "ratio"},
      {"host.wall_samples", static_cast<double>(untraced.reads), "count"},
      {"host.gen_lag_ms", value("host.gen_lag_ms"), "ms"},
      {"host.simd_level",
       static_cast<double>(static_cast<int>(qse::simd::ActiveSimdLevel())),
       "level"},
  };
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

void Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "<ts_refine|scan_sharded|serve_churn|remote_wire> --seed <n> "
               "--seconds <s> --trace <0|1> [--scale tiny] [--scratch <dir>]\n");
  std::exit(2);
}

int Main(int argc, char** argv) {
  uint64_t process_start = NowNs();
  // A fixed mmap threshold returns every large block (database versions)
  // to the OS when freed; glibc's adaptive default keeps some, so peak
  // RSS would depend on allocation timing rather than on live memory.
  mallopt(M_MMAP_THRESHOLD, 1 << 20);
  Config config;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) Usage();
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(config.seconds > 0)) Usage();
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage();
      config.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "tiny" && value != "full") Usage();
      config.tiny = value == "tiny";
    } else if (flag == "--scratch") {
      config.scratch_dir = value;
    } else {
      Usage();
    }
  }
  if (!have_workload) Usage();
  std::unique_ptr<Workload> (*make)(const Config&) = nullptr;
  if (config.workload == "ts_refine") make = MakeTsRefine;
  if (config.workload == "scan_sharded") make = MakeScanSharded;
  if (config.workload == "serve_churn") make = MakeServeChurn;
  if (config.workload == "remote_wire") make = MakeRemoteWire;
  if (make == nullptr) Usage();
  bool own_scratch = config.scratch_dir.empty();
  if (own_scratch) {
    config.scratch_dir =
        ".bench_build/perfbench-scratch-" + std::to_string(::getpid());
  }
  std::error_code ec;
  std::filesystem::create_directories(config.scratch_dir, ec);

  // Set up three times from scratch; the last set-up serves the runs.
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int rep = 0; rep < kSetups; ++rep) {
    workload.reset();
    uint64_t start = rep == 0 ? process_start : NowNs();
    workload = make(config);
    workload->Setup();
    setup_s.push_back(1e-9 * static_cast<double>(NowNs() - start));
  }
  double setup_median = Quantile(setup_s, 0.5);

  RunResult first = workload->Run(false);
  RunResult traced;
  if (config.trace) traced = workload->Run(true);
  double peak_rss = PeakRssMb();
  std::vector<std::string> errors;
  double recall = workload->Verify(first, &errors);
  workload.reset();
  if (own_scratch) std::filesystem::remove_all(config.scratch_dir, ec);

  std::vector<Metric> metrics =
      config.trace ? PerLayer(first, traced)
                   : EndToEnd(first, recall, setup_median, peak_rss);
  bool finite = true;
  for (const Metric& m : metrics) finite = finite && std::isfinite(m.value);
  if (!finite) errors.push_back("a metric is not a finite number");

  std::printf("# workload %s seed %" PRIu64 " trace %d: %zu reads, %zu writes\n",
              config.workload.c_str(), config.seed, config.trace ? 1 : 0,
              first.reads, first.writes);
  std::printf("# setup_s runs:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\n");
  for (const Metric& m : metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& e : errors) {
    std::printf("# WRONG: %s\n", e.c_str());
  }
  const RunResult& counted = config.trace ? traced : first;
  std::string json = "{\"correct\": ";
  json += errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(counted.reads + counted.writes);
  json += ", \"failed\": " + std::to_string(counted.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    json += (i ? ", \"" : "\"") + JsonEscape(metrics[i].name) +
            "\": {\"value\": " + value + ", \"unit\": \"" +
            JsonEscape(metrics[i].unit) + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return errors.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
