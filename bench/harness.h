#ifndef QSE_BENCH_HARNESS_H_
#define QSE_BENCH_HARNESS_H_

#include <memory>
#include <string>
#include <vector>

#include "src/core/trainer.h"
#include "src/data/dataset.h"
#include "src/data/distance_cache.h"
#include "src/distance/series.h"
#include "src/embedding/fastmap.h"
#include "src/retrieval/evaluation.h"
#include "src/util/csv.h"

namespace qse {
namespace bench {

/// Parses --key=value command-line flags with defaults; unknown flags
/// abort with a usage message so typos do not silently run the default
/// experiment.
class Flags {
 public:
  Flags(int argc, char** argv);

  size_t GetSize(const std::string& key, size_t def) const;
  double GetDouble(const std::string& key, double def) const;
  std::string GetString(const std::string& key, std::string def) const;
  bool GetBool(const std::string& key, bool def) const;

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
};

/// A retrieval workload: one oracle over database + query objects, the
/// id split, and a human-readable name.  The oracle is wrapped in a
/// disk-persistent CachingOracle so the expensive DX evaluations are paid
/// once across bench binaries (cache files live in bench_cache/).
struct Workload {
  std::string name;
  std::unique_ptr<DistanceOracle> raw_oracle;    // Owns the objects.
  std::unique_ptr<CachingOracle> oracle;         // Wraps raw_oracle.
  std::vector<size_t> db_ids;
  std::vector<size_t> query_ids;
  std::string cache_path;

  /// Persists the distance cache (call after the experiment).
  void SaveCache() const;
};

/// Scale parameters shared by the digit and time-series workloads; see
/// EXPERIMENTS.md for how the defaults map to the paper's scale.
struct WorkloadScale {
  size_t db_size = 1200;
  size_t num_queries = 120;
  uint64_t seed = 2005;
};

/// The MNIST substitute: synthetic stroke digits under the Shape Context
/// Distance (paper Sec. 9, first testbed; DESIGN.md substitution #1).
Workload MakeDigitsWorkload(const WorkloadScale& scale);

/// The [32]-style time-series workload under constrained DTW with a 10%
/// band (paper Sec. 9, second testbed).  `fixed_length` selects the
/// equal-length variant needed by LB_Keogh.
Workload MakeTimeSeriesWorkload(const WorkloadScale& scale,
                                bool fixed_length = false);

/// Raw series access for benches that need the objects themselves (the
/// LB index experiment); generated with the same parameters/seed as
/// MakeTimeSeriesWorkload(fixed_length=true).
std::vector<Series> MakeFixedLengthSeries(const WorkloadScale& scale,
                                          size_t count, uint64_t salt);

/// Training budget for the BoostMap variants.
struct TrainingScale {
  size_t num_cand = 400;       // |C|.
  size_t num_train = 400;      // |Xtr|.
  size_t num_triples = 30000;  // Paper: 300k full / 10k quick.
  size_t rounds = 128;         // Boosting rounds J.
  size_t embeddings_per_round = 48;
  size_t k1 = 5;               // Sec. 6 (5 for MNIST, 9 for time series).
  uint64_t seed = 7;
};

/// One evaluated method: its name and the dimensionality-sweep ladder.
struct MethodLadder {
  std::string name;
  std::vector<LadderPoint> ladder;
  /// DX calls training made for its precomputed matrices (BoostMap
  /// variants; 0 for FastMap).
  size_t preprocessing_distances = 0;
};

/// Doubling prefix ladder {1, 2, 4, ..., max}.
std::vector<size_t> DoublingLadder(size_t max);

/// Trains one BoostMap variant (Ra/Se x QI/QS) on the workload and
/// evaluates the prefix ladder against the ground truth.
MethodLadder RunBoostMapVariant(const Workload& workload,
                                const GroundTruth& gt,
                                const std::string& name,
                                TripleSampling sampling, bool query_sensitive,
                                const TrainingScale& scale);

/// Builds FastMap on a database sample and evaluates its dims ladder.
MethodLadder RunFastMap(const Workload& workload, const GroundTruth& gt,
                        size_t dims, const TrainingScale& scale);

/// Ground truth with progress logging; |queries| x |db| exact distances
/// through the workload's cache.
GroundTruth ComputeWorkloadGroundTruth(const Workload& workload, size_t kmax);

/// Emits one paper-style figure table: rows = the k values of `ks` up to
/// `kmax` (the ground truth's depth), columns = methods, cells = optimal
/// #exact distances at the given accuracy.  Also writes CSV to
/// bench_results/<stem>.csv.
void ReportAccuracyTable(const std::string& title, const std::string& stem,
                         const std::vector<MethodLadder>& methods,
                         const std::vector<size_t>& ks, size_t kmax,
                         double accuracy, size_t db_size);

/// Ensures bench_results/ exists and returns the full path for a stem.
std::string ResultsPath(const std::string& stem);

/// Writes the full k = 1..kmax cost series (one column per method) for a
/// fixed accuracy — the machine-readable form of one panel of Fig. 4/5.
void WriteSeriesCsv(const std::string& stem,
                    const std::vector<MethodLadder>& methods, size_t kmax,
                    double accuracy, size_t db_size);

/// Runs one full accuracy-vs-cost figure (Figs. 4 and 5): trains
/// FastMap, Ra-QI, Se-QI and Se-QS (adding Ra-QS when `include_ra_qs`),
/// prints one table per accuracy in `accuracies`, and writes per-panel
/// CSV series.  Returns the evaluated ladders for further reporting.
std::vector<MethodLadder> RunAccuracyFigure(
    const Workload& workload, const TrainingScale& scale,
    const std::string& stem, const std::vector<double>& accuracies,
    const std::vector<size_t>& print_ks, size_t kmax, bool include_ra_qs);

}  // namespace bench
}  // namespace qse

#endif  // QSE_BENCH_HARNESS_H_
