// Reproduces Table 1: for both datasets (digits + Shape Context, time
// series + constrained DTW), the number of exact distance computations
// required by FastMap, Ra-QI, Ra-QS, Se-QI and Se-QS for k in {1, 10, 50}
// and accuracy in {90, 95, 99, 100}%.
//
// Paper shape to verify: Se-QS is the cheapest column almost everywhere;
// the intermediates Ra-QS / Se-QI fall between Ra-QI and Se-QS; the 100%
// rows are dominated by worst-case queries and approach brute force for
// large k (the paper notes this explicitly).
#include <cstdio>

#include "bench/harness.h"

namespace qse {
namespace {

void EmitTable1(const std::string& dataset_title, const std::string& stem,
                const std::vector<bench::MethodLadder>& methods,
                size_t kmax, size_t db_size) {
  std::vector<std::string> header = {"k", "pct"};
  for (const auto& m : methods) header.push_back(m.name);
  Table table(header);
  for (size_t k : {1u, 10u, 50u}) {
    if (k > kmax) continue;  // The ground truth holds only kmax neighbors.
    for (double pct : {0.90, 0.95, 0.99, 1.00}) {
      std::vector<std::string> row = {Table::Fmt(k),
                                      Table::Fmt(static_cast<size_t>(
                                          pct * 100.0))};
      for (const auto& m : methods) {
        row.push_back(Table::Fmt(OptimalCost(m.ladder, k, pct, db_size)));
      }
      table.AddRow(std::move(row));
    }
  }
  std::printf("\nTable 1 — %s (brute force = %zu distances)\n%s",
              dataset_title.c_str(), db_size, table.ToPretty().c_str());
  Status s = table.WriteCsv(bench::ResultsPath(stem));
  if (!s.ok()) std::fprintf(stderr, "%s\n", s.ToString().c_str());
}

}  // namespace
}  // namespace qse

int main(int argc, char** argv) {
  using namespace qse;
  bench::Flags flags(argc, argv);

  size_t kmax = flags.GetSize("kmax", 50);

  {
    bench::WorkloadScale wscale;
    wscale.db_size = flags.GetSize("db", 1200);
    wscale.num_queries = flags.GetSize("queries", 120);
    wscale.seed = flags.GetSize("seed", 2005);
    bench::TrainingScale tscale;
    tscale.num_cand = flags.GetSize("cand", 400);
    tscale.num_train = flags.GetSize("train", 400);
    tscale.num_triples = flags.GetSize("triples", 30000);
    tscale.rounds = flags.GetSize("rounds", 128);
    tscale.embeddings_per_round = flags.GetSize("epr", 48);
    tscale.k1 = 5;
    tscale.seed = flags.GetSize("train_seed", 7);
    bench::Workload digits = bench::MakeDigitsWorkload(wscale);
    // No printed per-accuracy panels here; Table 1 summarizes directly.
    auto methods = bench::RunAccuracyFigure(
        digits, tscale, "table1_mnist", {}, {}, kmax,
        /*include_ra_qs=*/true);
    EmitTable1("digits database with Shape Context", "table1_mnist",
               methods, kmax, digits.db_ids.size());
  }

  {
    bench::WorkloadScale wscale;
    wscale.db_size = flags.GetSize("ts_db", 2000);
    wscale.num_queries = flags.GetSize("ts_queries", 150);
    wscale.seed = flags.GetSize("ts_seed", 32);
    bench::TrainingScale tscale;
    tscale.num_cand = flags.GetSize("cand", 400);
    tscale.num_train = flags.GetSize("train", 400);
    tscale.num_triples = flags.GetSize("triples", 30000);
    tscale.rounds = flags.GetSize("rounds", 128);
    tscale.embeddings_per_round = flags.GetSize("epr", 48);
    tscale.k1 = 9;
    tscale.seed = flags.GetSize("train_seed", 11);
    bench::Workload series = bench::MakeTimeSeriesWorkload(wscale);
    auto methods = bench::RunAccuracyFigure(
        series, tscale, "table1_timeseries", {}, {}, kmax,
        /*include_ra_qs=*/true);
    EmitTable1("time series dataset with constrained DTW",
               "table1_timeseries", methods, kmax, series.db_ids.size());
  }
  return 0;
}
