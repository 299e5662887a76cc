#include "src/retrieval/retrieval_engine.h"

#include <algorithm>

#include "src/distance/simd/dispatch.h"
#include "src/obs/quality_monitor.h"
#include "src/obs/trace.h"
#include "src/util/logging.h"
#include "src/util/parallel.h"
#include "src/util/timer.h"

namespace qse {
namespace {

/// Nanoseconds from `start` to `end` (histogram-record helper).
double NsBetween(MonotonicClock::time_point start,
                 MonotonicClock::time_point end) {
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
}

/// splitmix64 finalizer: full avalanche, so the sequential ids most
/// callers use spread evenly instead of striping shards modulo S.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

obs::Histogram* StageHistogram(const char* name) {
  return obs::MetricRegistry::Global().GetHistogram(
      name, obs::DefaultLatencyBoundariesNs());
}

/// Moves the candidate lists out of `scans` for the k-way merge.
std::vector<std::vector<ScoredIndex>> TakeCandidateLists(
    std::vector<ScanCandidatesResult>* scans) {
  std::vector<std::vector<ScoredIndex>> lists;
  lists.reserve(scans->size());
  for (ScanCandidatesResult& scan : *scans) {
    lists.push_back(std::move(scan.candidates));
  }
  return lists;
}

}  // namespace

size_t HashShardOf(size_t db_id, size_t num_shards) {
  return static_cast<size_t>(Mix64(db_id) % num_shards);
}

RetrievalEngine::RetrievalEngine(const Embedder* embedder,
                                 const FilterScorer* scorer,
                                 size_t scatter_threads)
    : embedder_(embedder),
      scorer_(scorer),
      scatter_threads_(scatter_threads),
      retrievals_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_retrievals_total")),
      exact_distances_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_exact_distances_total")),
      filter_rows_visited_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_filter_rows_visited_total")),
      filter_rows_pruned_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_filter_rows_pruned_total")),
      filter_rows_prescreened_total_(obs::MetricRegistry::Global().GetCounter(
          "qse_engine_filter_rows_prescreened_total")),
      embed_ns_(StageHistogram("qse_engine_embed_latency_ns")),
      scan_ns_(StageHistogram("qse_engine_scan_latency_ns")),
      merge_ns_(StageHistogram("qse_engine_merge_latency_ns")),
      refine_ns_(StageHistogram("qse_engine_refine_latency_ns")) {}

RetrievalEngine::RetrievalEngine(const Embedder* embedder,
                                 const FilterScorer* scorer,
                                 EmbeddedDatabase* db,
                                 std::vector<size_t> db_ids)
    : RetrievalEngine(embedder, scorer, /*scatter_threads=*/1) {
  QSE_CHECK(db->size() == db_ids.size());
  shards_.resize(1);
  shards_[0].db = db;
  db->AssignIds(db_ids);
  // Rows written through mutable_row() leave the int8 matrix stale; the
  // exact scan prescreens on it, so rebuild it here.
  if (!db->snapshot()->has_i8()) db->RebuildPrescreenMatrix();
  RebuildIdIndex();
}

RetrievalEngine::RetrievalEngine(const Embedder* embedder,
                                 const FilterScorer* scorer,
                                 ShardedEngineOptions options)
    : RetrievalEngine(embedder, scorer, options.scatter_threads) {
  AddOwnedShards(options.num_shards, embedder_->dims());
}

RetrievalEngine::RetrievalEngine(const Embedder* embedder,
                                 const FilterScorer* scorer,
                                 const EmbeddedDatabase& db,
                                 const std::vector<size_t>& db_ids,
                                 ShardedEngineOptions options)
    : RetrievalEngine(embedder, scorer, options.scatter_threads) {
  QSE_CHECK_MSG(db.size() == db_ids.size(),
                "db has " << db.size() << " rows but " << db_ids.size()
                          << " ids");
  AddOwnedShards(options.num_shards,
                 db.empty() ? embedder_->dims() : db.dims());
  // Bulk load: size every shard, copy its rows in, then build each int8
  // matrix in one pass instead of maintaining it row by row.
  const size_t dims = shards_[0].db->dims();
  std::vector<std::vector<size_t>> shard_ids(shards_.size());
  for (size_t row = 0; row < db.size(); ++row) {
    shard_ids[ShardOf(db_ids[row])].push_back(db_ids[row]);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].db->Resize(shard_ids[s].size());
  }
  std::vector<size_t> filled(shards_.size(), 0);
  for (size_t row = 0; row < db.size(); ++row) {
    const size_t s = ShardOf(db_ids[row]);
    std::copy(db.row(row), db.row(row) + dims,
              shards_[s].db->mutable_row(filled[s]++));
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s].db->AssignIds(shard_ids[s]);
    shards_[s].db->RebuildPrescreenMatrix();
  }
  RebuildIdIndex();
}

RetrievalEngine::RetrievalEngine(
    const Embedder* embedder,
    std::vector<std::shared_ptr<RetrievalBackend>> shard_backends,
    ShardedEngineOptions options)
    : RetrievalEngine(embedder, nullptr, options.scatter_threads) {
  QSE_CHECK_MSG(!shard_backends.empty(),
                "a composed engine needs at least one shard backend");
  shards_.resize(shard_backends.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    QSE_CHECK_MSG(shard_backends[s] != nullptr, "null shard backend");
    shards_[s].backend = std::move(shard_backends[s]);
  }
  local_ = false;
}

void RetrievalEngine::AddOwnedShards(size_t num_shards, size_t dims) {
  shards_.resize(num_shards == 0 ? DefaultParallelism() : num_shards);
  for (Shard& shard : shards_) {
    shard.owned = std::make_unique<EmbeddedDatabase>(dims);
    shard.db = shard.owned.get();
  }
}

size_t RetrievalEngine::size() const {
  size_t total = 0;
  for (const Shard& shard : shards_) {
    total += shard.backend != nullptr ? shard.backend->size()
                                      : shard.db->size();
  }
  return total;
}

std::vector<size_t> RetrievalEngine::shard_sizes() const {
  std::vector<size_t> sizes;
  sizes.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    sizes.push_back(shard.backend != nullptr ? shard.backend->size()
                                             : shard.db->size());
  }
  return sizes;
}

std::vector<size_t> RetrievalEngine::db_ids() const {
  std::vector<size_t> ids;
  for (const Shard& shard : shards_) {
    if (shard.db == nullptr) continue;
    std::vector<size_t> part = shard.db->ids();
    ids.insert(ids.end(), part.begin(), part.end());
  }
  return ids;
}

void RetrievalEngine::RebuildIdIndex() {
  std::lock_guard<std::mutex> lock(mutation_mu_);
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = shards_[s];
    QSE_CHECK_MSG(shard.db != nullptr,
                  "RebuildIdIndex needs locally held shards");
    std::vector<size_t> ids = shard.db->ids();
    shard.row_of.clear();
    shard.row_of.reserve(ids.size());
    for (size_t row = 0; row < ids.size(); ++row) {
      QSE_CHECK_MSG(ShardOf(ids[row]) == s,
                    "database id " << ids[row] << " stored in shard " << s
                                   << " routes to shard "
                                   << ShardOf(ids[row]));
      bool inserted = shard.row_of.emplace(ids[row], row).second;
      QSE_CHECK_MSG(inserted, "duplicate database id " << ids[row]);
    }
  }
}

Status RetrievalEngine::Scan(
    const Vector& fq, const RetrievalOptions& options,
    obs::RequestTrace* trace, uint64_t* trace_ns,
    std::vector<ScanCandidatesResult>* scans,
    std::vector<EmbeddedDatabase::Snapshot>* snapshots) const {
  const size_t num_shards = shards_.size();
  scans->assign(num_shards, {});
  if (snapshots != nullptr) snapshots->assign(num_shards, {});
  // A traced scan stamps where each shard's scan ends and on which
  // thread; the spans are recorded after the join.
  struct ShardEnd {
    uint64_t ns = 0;
    uint32_t tid = 0;
    bool done = false;
  };
  std::vector<ShardEnd> ends(trace != nullptr ? num_shards : 0);
  // Shard scans can fail (a remote peer down mid fan-out); collect the
  // first failure and fail the query honestly.
  std::mutex error_mu;
  Status first_error = Status::OK();
  auto fail = [&](Status status) {
    std::lock_guard<std::mutex> lock(error_mu);
    if (first_error.ok()) first_error = std::move(status);
  };
  // Grain 2: one item is a whole shard scan; a single shard stays
  // serial.
  ParallelForGrain(
      0, num_shards, 2,
      [&](size_t s) {
        const Shard& shard = shards_[s];
        ScanCandidatesResult& scan = (*scans)[s];
        if (shard.backend != nullptr) {
          // The backend counts the rows it scans where its scan runs.
          StatusOr<ScanCandidatesResult> remote =
              shard.backend->TracedScanCandidates(fq, options, trace);
          if (!remote.ok()) return fail(remote.status());
          scan = std::move(remote).value();
        } else {
          // Local shard: scan one snapshot so a concurrent mutation of
          // the shard never tears the scan.
          EmbeddedDatabase::Snapshot snap = shard.db->snapshot();
          const EmbeddedDatabase::View& view = snap.view();
          FilterScanStats stats;
          if (!view.empty()) {
            scan.candidates = scorer_->ScoreTopP(
                fq, view, options.p, options.filter_precision, &stats);
          }
          scan.rows = view.size();
          scan.rows_pruned = stats.rows_pruned;
          scan.rows_prescreened = stats.rows_prescreened;
          filter_rows_visited_total_->Add(stats.rows_visited);
          filter_rows_pruned_total_->Add(stats.rows_pruned);
          filter_rows_prescreened_total_->Add(stats.rows_prescreened);
          if (snapshots != nullptr) (*snapshots)[s] = std::move(snap);
        }
        if (trace != nullptr) {
          ends[s] = {obs::TraceNowNs(trace), obs::RequestTrace::ThisThreadId(),
                     true};
        }
      },
      scatter_threads_);
  if (trace != nullptr) {
    // Each thread's shard spans tile its share of the scan: a span starts
    // where the same thread's previous one ended, the first at the
    // scan's start.  *trace_ns becomes the last end, the merge's start.
    std::vector<size_t> order;
    for (size_t s = 0; s < num_shards; ++s) {
      if (ends[s].done) order.push_back(s);
    }
    std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
      return ends[x].ns < ends[y].ns;
    });
    const uint64_t scan_start = *trace_ns;
    std::vector<std::pair<uint32_t, uint64_t>> thread_ends;
    for (size_t s : order) {
      uint64_t start = scan_start;
      auto it = std::find_if(
          thread_ends.begin(), thread_ends.end(),
          [&](const auto& te) { return te.first == ends[s].tid; });
      if (it == thread_ends.end()) {
        thread_ends.emplace_back(ends[s].tid, ends[s].ns);
      } else {
        start = it->second;
        it->second = ends[s].ns;
      }
      const ScanCandidatesResult& scan = (*scans)[s];
      obs::TraceSpan span;
      span.name = "shard_scan";
      span.start_ns = start;
      span.dur_ns = ends[s].ns > start ? ends[s].ns - start : 0;
      span.tid = ends[s].tid;
      span.args = {
          obs::TraceArg{"shard", static_cast<int64_t>(s), nullptr},
          obs::TraceArg{"rows", static_cast<int64_t>(scan.rows), nullptr},
          obs::TraceArg{"rows_pruned",
                        static_cast<int64_t>(scan.rows_pruned), nullptr},
          obs::TraceArg{"prescreened",
                        static_cast<int64_t>(scan.rows_prescreened),
                        nullptr},
          obs::TraceArg{"simd", 0,
                        simd::SimdLevelName(simd::ActiveSimdLevel())},
          obs::TraceArg{"composed", shards_[s].backend != nullptr,
                        nullptr}};
      obs::TraceAddSpan(trace, std::move(span));
      *trace_ns = std::max(*trace_ns, ends[s].ns);
    }
  }
  return first_error;
}

StatusOr<RetrievalResponse> RetrievalEngine::Retrieve(
    const RetrievalRequest& request) const {
  const DxToDatabaseFn& dx = request.dx;
  const RetrievalOptions& options = request.options;
  obs::RequestTrace* trace = request.trace.get();
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  // Fast-fail on an empty local database before spending embedding
  // distances on `dx` (cheap atomic peeks; the scan's snapshots re-check
  // authoritatively under concurrent mutation).  Composed shards are
  // only asked by the scan itself.
  if (local_ && size() == 0) {
    return Status::FailedPrecondition("embedded database is empty");
  }

  RetrievalResponse response;
  // Each stage boundary is one clock read, shared by the stage
  // histograms and a sampled request's spans, so the spans of embed,
  // the shard scans, merge and refine meet end to start.
  // Embedding step: once per query, shared by every shard's scan, and
  // before any snapshot is taken — it only talks to `dx`, and shorter
  // holds let replaced versions be freed sooner.
  size_t embed_cost = 0;
  const MonotonicClock::time_point embed_start = MonotonicClock::now();
  Vector fq = embedder_->Embed(dx, &embed_cost);
  const MonotonicClock::time_point scan_start = MonotonicClock::now();
  embed_ns_->Record(NsBetween(embed_start, scan_start));
  uint64_t stage_ns = obs::TraceNsAt(trace, scan_start);
  obs::TraceMarkUntil(trace, "embed", obs::TraceNsAt(trace, embed_start),
                      stage_ns);
  response.embedding_distances = embed_cost;

  // Scan: each shard keeps its local top p (the global top p could in
  // the worst case live entirely in one shard).  An attached monitor
  // keeps the scan's snapshots: an audit must score the exact views
  // this response was served from, not the live shards.
  const bool keep_snapshots = local_ && options.audit_monitor != nullptr;
  std::vector<ScanCandidatesResult> scans;
  std::vector<EmbeddedDatabase::Snapshot> snapshots;
  Status scanned = Scan(fq, options, trace, &stage_ns, &scans,
                        keep_snapshots ? &snapshots : nullptr);
  const MonotonicClock::time_point merge_start = MonotonicClock::now();
  scan_ns_->Record(NsBetween(scan_start, merge_start));
  QSE_RETURN_IF_ERROR(scanned);
  size_t total_rows = 0;
  for (const ScanCandidatesResult& scan : scans) total_rows += scan.rows;
  if (total_rows == 0) {
    return Status::FailedPrecondition("embedded database is empty");
  }
  std::vector<std::vector<ScoredIndex>> per_shard = TakeCandidateLists(&scans);

  // Merge: k-way heap merge down to the global top p under (score, id).
  // Its span starts where the last shard scan ended, so it also holds
  // the join, the hand-over of the candidate lists and the shard stats.
  std::vector<ScoredIndex> candidates = MergeSortedTopK(per_shard, options.p);
  if (options.want_stats) {
    // The merged top p is a prefix of the (score, id) order and ids are
    // disjoint across shards, so shard s contributed exactly the entries
    // of its sorted list that do not sort after the last merged one.
    response.shard_stats.assign(per_shard.size(), ShardScanStats{});
    for (size_t s = 0; s < per_shard.size(); ++s) {
      response.shard_stats[s].rows = scans[s].rows;
      for (const ScoredIndex& c : per_shard[s]) {
        if (candidates.empty() || candidates.back() < c) break;
        ++response.shard_stats[s].candidates;
      }
    }
  }
  const MonotonicClock::time_point refine_start = MonotonicClock::now();
  merge_ns_->Record(NsBetween(merge_start, refine_start));
  const uint64_t refine_ns = obs::TraceNsAt(trace, refine_start);
  obs::TraceMarkUntil(trace, "merge", stage_ns, refine_ns,
                      {obs::TraceArg{"candidates",
                                     static_cast<int64_t>(candidates.size()),
                                     nullptr}});

  // Refine: exact distances on the merged p only.
  std::vector<ScoredIndex> refined;
  refined.reserve(candidates.size());
  for (const ScoredIndex& c : candidates) {
    refined.push_back({c.index, dx(c.index)});
  }
  std::sort(refined.begin(), refined.end());
  if (refined.size() > options.k) refined.resize(options.k);
  const MonotonicClock::time_point refine_end = MonotonicClock::now();
  refine_ns_->Record(NsBetween(refine_start, refine_end));
  obs::TraceMarkUntil(trace, "refine", refine_ns,
                      obs::TraceNsAt(trace, refine_end),
                      {obs::TraceArg{"candidates",
                                     static_cast<int64_t>(candidates.size()),
                                     nullptr}});
  response.neighbors = std::move(refined);
  response.exact_distances = embed_cost + candidates.size();
  retrievals_total_->Increment();
  exact_distances_total_->Add(response.exact_distances);

  // Quality audit hook: offer 1-in-N completed responses to the
  // monitor with the snapshots this response was served from, so the
  // background exact re-scan scores identical rows under concurrent
  // mutation.
  if (keep_snapshots && options.audit_monitor->ShouldSample()) {
    obs::AuditTask audit;
    audit.dx = dx;
    audit.k = options.k;
    audit.served.reserve(response.neighbors.size());
    for (const ScoredIndex& nb : response.neighbors) {
      audit.served.push_back({nb.index, nb.score});
    }
    audit.snapshots = std::move(snapshots);
    audit.trace = request.trace;
    options.audit_monitor->SubmitAudit(std::move(audit));
  }
  response.trace = request.trace;
  return response;
}

StatusOr<ScanCandidatesResult> RetrievalEngine::ScanCandidates(
    const Vector& embedded_query, const RetrievalOptions& options) const {
  QSE_RETURN_IF_ERROR(ValidateRetrievalOptions(options));
  const size_t dims = local_ ? shards_[0].db->dims() : embedder_->dims();
  if (embedded_query.size() != dims) {
    return Status::InvalidArgument(
        "embedded query has " + std::to_string(embedded_query.size()) +
        " dims, engine holds " + std::to_string(dims));
  }
  // Unlike Retrieve, an empty engine is NOT an error here: a scan
  // contributes nothing, and the gathering caller — who can see every
  // shard — decides whether overall emptiness is FailedPrecondition.
  std::vector<ScanCandidatesResult> scans;
  uint64_t unused_ns = 0;
  const MonotonicClock::time_point stage_start = MonotonicClock::now();
  QSE_RETURN_IF_ERROR(Scan(embedded_query, options, /*trace=*/nullptr,
                           &unused_ns, &scans, /*snapshots=*/nullptr));
  scan_ns_->Record(NsBetween(stage_start, MonotonicClock::now()));

  ScanCandidatesResult result;
  for (const ScanCandidatesResult& scan : scans) {
    result.rows += scan.rows;
    result.rows_pruned += scan.rows_pruned;
    result.rows_prescreened += scan.rows_prescreened;
  }
  result.candidates = MergeSortedTopK(TakeCandidateLists(&scans), options.p);
  return result;
}

Status RetrievalEngine::AppendLocked(Shard& shard, size_t db_id,
                                     const Vector& row) {
  if (shard.row_of.count(db_id) != 0) {
    return Status::InvalidArgument("database id already present: " +
                                   std::to_string(db_id));
  }
  if (row.size() != shard.db->dims()) {
    return Status::InvalidArgument(
        "embedded row has " + std::to_string(row.size()) +
        " dims, database holds " + std::to_string(shard.db->dims()));
  }
  shard.row_of.emplace(db_id, shard.db->Append(row, db_id));
  return Status::OK();
}

Status RetrievalEngine::InsertEmbedded(size_t db_id,
                                       const Vector& embedded_row) {
  Shard& shard = shards_[ShardOf(db_id)];
  if (shard.backend != nullptr) {
    return shard.backend->InsertEmbedded(db_id, embedded_row);
  }
  std::lock_guard<std::mutex> lock(mutation_mu_);
  return AppendLocked(shard, db_id, embedded_row);
}

Status RetrievalEngine::Insert(size_t db_id, const DxToDatabaseFn& dx) {
  Shard& shard = shards_[ShardOf(db_id)];
  if (shard.backend != nullptr) return shard.backend->Insert(db_id, dx);
  std::lock_guard<std::mutex> lock(mutation_mu_);
  // Check before embedding: a duplicate must not cost 2d distances.
  if (shard.row_of.count(db_id) != 0) {
    return Status::InvalidArgument("database id already present: " +
                                   std::to_string(db_id));
  }
  return AppendLocked(shard, db_id, embedder_->Embed(dx, nullptr));
}

Status RetrievalEngine::Remove(size_t db_id) {
  Shard& shard = shards_[ShardOf(db_id)];
  if (shard.backend != nullptr) return shard.backend->Remove(db_id);
  std::lock_guard<std::mutex> lock(mutation_mu_);
  auto it = shard.row_of.find(db_id);
  if (it == shard.row_of.end()) {
    return Status::NotFound("database id not present: " +
                            std::to_string(db_id));
  }
  size_t row = it->second;
  shard.row_of.erase(it);
  if (shard.db->SwapRemove(row) != row) {
    // The former last row now lives at `row`; the database already
    // swapped its id column, so read the moved id back from it.
    shard.row_of[shard.db->id_of(row)] = row;
  }
  return Status::OK();
}

}  // namespace qse
