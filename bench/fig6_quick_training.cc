// Reproduces Figure 6: the "Quick Se-QS" experiment.  The paper trains
// Se-QS with drastically reduced preprocessing (|C| = |Xtr| = 200 instead
// of 5,000, and 10,000 triples instead of 300,000 — 80,000 precomputed
// distances instead of 50,000,000) and shows the result is worse than the
// fully-trained Se-QS but still clearly better than FastMap at 95%
// accuracy.
//
// Here "Regular" uses the repo's default training scale and "Quick" cuts
// |C| = |Xtr| tenfold and the triple budget fifteenfold.  C and Xtr share
// one sample, so training makes n(n - 1) DX calls for n = |C|: ~100x
// fewer precomputed distances.
#include <cstdio>

#include "bench/harness.h"

int main(int argc, char** argv) {
  using namespace qse;
  bench::Flags flags(argc, argv);

  bench::WorkloadScale wscale;
  wscale.db_size = flags.GetSize("db", 1200);
  wscale.num_queries = flags.GetSize("queries", 120);
  wscale.seed = flags.GetSize("seed", 2005);

  bench::TrainingScale regular;
  regular.num_cand = flags.GetSize("cand", 400);
  regular.num_train = flags.GetSize("train", 400);
  regular.num_triples = flags.GetSize("triples", 30000);
  regular.rounds = flags.GetSize("rounds", 128);
  regular.embeddings_per_round = flags.GetSize("epr", 48);
  regular.k1 = 5;
  regular.seed = flags.GetSize("train_seed", 7);

  bench::TrainingScale quick = regular;
  quick.num_cand = flags.GetSize("quick_cand", 40);
  quick.num_train = flags.GetSize("quick_train", 40);
  quick.num_triples = flags.GetSize("quick_triples", 2000);
  quick.k1 = 3;  // k1 must stay below |Xtr| - 1 at the reduced scale.

  size_t kmax = flags.GetSize("kmax", 50);
  bench::Workload workload = bench::MakeDigitsWorkload(wscale);
  GroundTruth gt = bench::ComputeWorkloadGroundTruth(workload, kmax);
  workload.SaveCache();

  std::vector<bench::MethodLadder> methods;
  methods.push_back(bench::RunFastMap(workload, gt, regular.rounds, regular));
  methods.push_back(bench::RunBoostMapVariant(
      workload, gt, "Quick Se-QS", TripleSampling::kSelective, true, quick));
  methods.push_back(bench::RunBoostMapVariant(workload, gt, "Regular Se-QS",
                                              TripleSampling::kSelective,
                                              true, regular));
  workload.SaveCache();

  bench::ReportAccuracyTable(
      "Figure 6 — Quick vs Regular Se-QS vs FastMap (digits, Shape Context)",
      "fig6_quick_training", methods, {1, 2, 5, 10, 20, 30, 40, 50}, kmax,
      0.95, workload.db_ids.size());
  bench::WriteSeriesCsv("fig6_quick_training_series", methods, kmax, 0.95,
                        workload.db_ids.size());
  std::printf(
      "\nShape check (paper): FastMap >= Quick Se-QS >= Regular Se-QS at "
      "most k;\nQuick preprocessing paid %zu distances vs %zu for "
      "Regular.\n",
      methods[1].preprocessing_distances, methods[2].preprocessing_distances);
  return 0;
}
