#include "src/retrieval/filter_refine.h"

#include <algorithm>

#include "src/util/parallel.h"

namespace qse {

EmbeddedDatabase EmbedDatabase(const Embedder& embedder,
                               const DistanceOracle& oracle,
                               const std::vector<size_t>& db_ids,
                               size_t num_threads) {
  EmbeddedDatabase db(embedder.dims());
  db.Resize(db_ids.size());
  // Grain 2: one item costs up to 2d exact DX evaluations — for real
  // workloads (shape context, DTW) each is worth a thread on its own.
  ParallelForGrain(
      0, db_ids.size(), 2,
      [&](size_t i) {
        size_t self = db_ids[i];
        Vector row = embedder.Embed(
            [&](size_t other) {
              return self == other ? 0.0 : oracle.Distance(self, other);
            },
            nullptr);
        std::copy(row.begin(), row.end(), db.mutable_row(i));
      },
      num_threads);
  db.RebuildPrescreenMatrix();
  return db;
}

}  // namespace qse
