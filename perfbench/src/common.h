// Pieces the four workloads share: configuration, seeded data, model
// training, the closed-loop driver, answer checks and ground truth.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/seams.h"
#include "src/core/qs_embedding.h"
#include "src/data/dataset.h"
#include "src/distance/series.h"
#include "src/retrieval/retrieval_backend.h"
#include "src/util/random.h"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Self-test scale: every size shrunk so a run takes about a second.
  bool tiny = false;
  /// Directory for files a workload writes (the WAL); inside the
  /// checkout, removed when the workload is destroyed.
  std::string scratch_dir;
};

/// One read's answer, kept for the checks after the run.
struct ReadAnswer {
  size_t query = 0;
  bool ok = false;
  std::vector<size_t> ids;
  std::vector<double> scores;
  size_t stats_candidates = 0;  // want_stats: merged top-p entries
};

/// What one measured run produced.
struct RunResult {
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  size_t reads = 0;
  size_t writes = 0;
  size_t failed = 0;
  uint64_t read_dx = 0;  // DX counted in the read closures
  HostSample before;
  HostSample after;
  // Traced-run material.
  LayerTotals layers;
  uint64_t filter_rows = 0;
  uint64_t filter_pruned = 0;
  uint64_t filter_bytes = 0;
  uint64_t listed_candidates = 0;
  double e2e_ns = 0;           // sum of every operation's latency
  double unattributed_ns = 0;  // of which, outside every layer
  std::vector<ReadAnswer> answers;
  /// One calibration kernel call per read (read_ms order), made on the
  /// thread that served the read, right after it.  Its CPU time is not
  /// part of before/after: cal_cpu_ns is subtracted from cpu_s.
  std::vector<Calibration> cal;
  double cal_cpu_ns = 0;
  /// Workload-specific per-layer values (server.*, net.*, persist.*).
  std::map<std::string, double> layer_values;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the data, trains the model, embeds the database, builds
  /// engines / servers / WAL and warms up: everything setup_s covers.
  virtual void Setup() = 0;
  /// One measured run of the workload's fixed operation schedule; with
  /// `traced` the seam decorators time every layer.
  virtual RunResult Run(bool traced) = 0;
  /// Checks the answers of `first` (the first run made after Setup) and
  /// returns recall@k against brute force; appends failures to `errors`.
  virtual double Verify(const RunResult& first,
                        std::vector<std::string>* errors) = 0;
};

std::unique_ptr<Workload> MakeTsRefine(const Config& config);
std::unique_ptr<Workload> MakeScanSharded(const Config& config);
std::unique_ptr<Workload> MakeServeChurn(const Config& config);
std::unique_ptr<Workload> MakeRemoteWire(const Config& config);

// ------------------------------------------------------------- data

/// L1 distance between 16-D points; queries and database objects are
/// separate collections.
class VectorDx : public DxSource {
 public:
  VectorDx(const std::vector<qse::Vector>* queries,
           const std::vector<qse::Vector>* objects)
      : queries_(queries), objects_(objects) {}
  double Distance(size_t query, size_t db_id) const override;

 private:
  const std::vector<qse::Vector>* queries_;
  const std::vector<qse::Vector>* objects_;
};

/// Constrained DTW (10% band) between fixed-length series.
class SeriesDx : public DxSource {
 public:
  SeriesDx(const std::vector<qse::Series>* queries,
           const std::vector<qse::Series>* objects)
      : queries_(queries), objects_(objects) {}
  double Distance(size_t query, size_t db_id) const override;

 private:
  const std::vector<qse::Series>* queries_;
  const std::vector<qse::Series>* objects_;
};

/// Object-to-object distances through a DxSource whose queries are the
/// objects themselves; what training and database embedding consume.
class SourceOracle : public qse::DistanceOracle {
 public:
  SourceOracle(const DxSource* source, size_t n) : source_(source), n_(n) {}
  size_t size() const override { return n_; }
  double Distance(size_t i, size_t j) const override {
    return i == j ? 0.0 : source_->Distance(i, j);
  }

 private:
  const DxSource* source_;
  size_t n_;
};

struct TrainSpec {
  size_t sample = 200;  // |C| = |Xtr|; below ParallelFor's cutoff: serial
  size_t triples = 5000;
  size_t dims = 24;     // d of the model kept
  size_t rounds = 40;   // boosting rounds run to reach it
  size_t embeddings_per_round = 24;
  size_t k1 = 5;
};

/// Seed of everything a workload keeps fixed across --seed values.
constexpr uint64_t kModelSeed = 20050614;

struct VectorData {
  std::vector<qse::Vector> objects;
  std::vector<qse::Vector> queries;
};

/// 16-D points in 64 clusters whose layout is the same for every seed.
/// The first `fixed` objects come from
/// kModelSeed: they are the sample the model trains on, so every seed
/// trains the same model, and `seed` draws the rest of the database and
/// the queries.  Without this, the trained model's pruning efficiency
/// moved scan cost by tens of percent from seed to seed.
VectorData MakeVectorData(size_t objects, size_t fixed, size_t queries,
                          uint64_t seed);

/// Trains Se-QS (selective triples, query-sensitive distance) with
/// `sample` as both candidate and training set, and keeps the shortest
/// round prefix with `spec.dims` coordinates, so every seed scans rows
/// of the same width.
qse::QuerySensitiveEmbedding TrainSeQs(const qse::DistanceOracle& oracle,
                                       const std::vector<size_t>& sample,
                                       const TrainSpec& spec, uint64_t seed);

// ------------------------------------------------------- schedules

/// `reads` query indices drawn from `num_queries` seeded queries.
std::vector<size_t> ReadSchedule(size_t reads, size_t num_queries,
                                 qse::Rng* rng);

/// Reads `queries` back to back through `backend` (one client, closed
/// loop) and records latencies, answers, DX counts and host readings.
RunResult RunClosedLoop(const std::vector<size_t>& queries,
                        const qse::RetrievalBackend* backend,
                        const qse::RetrievalOptions& options,
                        const DxSource* source, bool traced);

/// Starts a measured phase: resets the seam clocks and counters and
/// turns timing on when `traced`.
void BeginPhase(bool traced, RunResult* result);
/// Ends it: reads the clocks and counters, turns timing off.
void EndPhase(RunResult* result);

/// Read latencies at the reference vCPU speed: each one times
/// kRefKernelNs over the median kernel wall time of the 33 reads around
/// it.  The host's vCPUs slow down by up to ~50% for seconds to minutes
/// (their hyperthread siblings run other tenants); the kernel, run on the
/// same thread right after each read, slows with them.
std::vector<double> RefScaled(const std::vector<double>& read_ms,
                              const std::vector<Calibration>& cal);

/// Process CPU ms per operation at the reference vCPU speed: measured CPU
/// (kernel calls excluded) times kRefKernelNs over the median kernel CPU
/// time.
double RefCpuMsPerOp(const RunResult& r);

// ----------------------------------------------------------- checks

/// Exact top-k database ids per query, brute force over `db_ids`.
std::vector<std::vector<size_t>> GroundTruth(const DxSource& source,
                                             size_t num_queries,
                                             const std::vector<size_t>& db_ids,
                                             size_t k);

/// Checks every answer: k neighbours, distinct ids, ascending scores;
/// the first answer to each query re-scored exactly; every later answer
/// to the same query identical to the first.  Returns mean recall@k
/// against `truth`.
double CheckAnswers(const std::vector<ReadAnswer>& answers,
                    const DxSource& source,
                    const std::vector<std::vector<size_t>>& truth, size_t k,
                    std::vector<std::string>* errors);

std::string Format(const char* fmt, ...);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
