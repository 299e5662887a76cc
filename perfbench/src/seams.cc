#include "perfbench/src/seams.h"

#include <memory>
#include <mutex>
#include <vector>

#include "src/retrieval/filter_precision.h"

namespace perfbench {

std::atomic<bool> g_trace{false};
SeamCounters g_counters;

void SeamCounters::Reset() {
  filter_rows = 0;
  filter_pruned = 0;
  filter_bytes = 0;
  listed_candidates = 0;
}

namespace {

std::mutex& RegistryMu() {
  static std::mutex mu;
  return mu;
}

std::vector<std::unique_ptr<PhaseClock>>& Registry() {
  static std::vector<std::unique_ptr<PhaseClock>> clocks;
  return clocks;
}

}  // namespace

PhaseClock& PhaseClock::Here() {
  thread_local PhaseClock* clock = [] {
    std::lock_guard<std::mutex> lock(RegistryMu());
    Registry().push_back(std::make_unique<PhaseClock>());
    return Registry().back().get();
  }();
  return *clock;
}

void PhaseClock::Enter(Layer layer) {
  uint64_t now = NowNs();
  if (depth_ > 0) Bump(self_[stack_[depth_ - 1].label], now - last_);
  if (depth_ < kMaxDepth) stack_[depth_] = {layer, layer, now};
  ++depth_;
  last_ = now;
}

void PhaseClock::Exit() {
  uint64_t now = NowNs();
  --depth_;
  const Frame& f = stack_[depth_ < kMaxDepth ? depth_ : kMaxDepth - 1];
  Bump(self_[f.label], now - last_);
  Bump(incl_[f.base], now - f.start);
  Bump(calls_[f.base], 1);
  last_ = now;
}

void PhaseClock::Relabel(Layer layer) {
  uint64_t now = NowNs();
  Frame& f = stack_[depth_ - 1];
  Bump(self_[f.label], now - last_);
  f.label = layer;
  last_ = now;
}

void PhaseClock::Reset() {
  for (int l = 0; l < kNumLayers; ++l) {
    self_[l].store(0, std::memory_order_relaxed);
    incl_[l].store(0, std::memory_order_relaxed);
    calls_[l].store(0, std::memory_order_relaxed);
  }
}

void PhaseClock::AddTo(LayerTotals* totals) const {
  for (int l = 0; l < kNumLayers; ++l) {
    totals->self_ns[l] += self_[l].load(std::memory_order_relaxed);
    totals->incl_ns[l] += incl_[l].load(std::memory_order_relaxed);
    totals->calls[l] += calls_[l].load(std::memory_order_relaxed);
  }
}

LayerTotals SumAllClocks() {
  LayerTotals totals;
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (const auto& clock : Registry()) clock->AddTo(&totals);
  return totals;
}

void ResetAllClocks() {
  std::lock_guard<std::mutex> lock(RegistryMu());
  for (const auto& clock : Registry()) clock->Reset();
}

double CountingDx::operator()(size_t db_id) const {
  // The first caller is the thread serving the request; a later call
  // from another thread is a background audit re-scoring the response.
  std::thread::id self = std::this_thread::get_id();
  if (!record->owned) {
    record->owner = self;
    record->owned = true;
  } else if (record->owner != self) {
    return source->Distance(query, db_id);
  }
  ++record->dx_calls;
  if (!g_trace.load(std::memory_order_relaxed)) {
    return source->Distance(query, db_id);
  }
  PhaseClock& clock = PhaseClock::Here();
  if (!clock.active()) return source->Distance(query, db_id);
  Layer layer = kDxRefine;
  switch (clock.top()) {
    case kEmbed:
      layer = kDxEmbed;
      break;
    case kEmbedWrite:
      layer = kDxWrite;
      break;
    case kEngine:
    case kMerge:
      // The engines call dx outside Embed only to refine candidates.
      clock.Relabel(kRefine);
      break;
    default:
      break;
  }
  clock.Enter(layer);
  double d = source->Distance(query, db_id);
  clock.Exit();
  return d;
}

qse::Vector TimedEmbedder::Embed(const qse::DxToDatabaseFn& dx,
                                 size_t* num_exact) const {
  if (!g_trace.load(std::memory_order_relaxed)) {
    return inner_->Embed(dx, num_exact);
  }
  PhaseClock& clock = PhaseClock::Here();
  Layer layer = kEmbed;
  if (clock.active()) {
    Layer top = clock.top();
    if (top == kWriteRoot || top == kEngineWrite) layer = kEmbedWrite;
    // A batched engine embeds the next query after refining the last.
    if (top == kRefine) clock.RestoreBase();
  }
  clock.Enter(layer);
  qse::Vector v = inner_->Embed(dx, num_exact);
  clock.Exit();
  return v;
}

std::vector<qse::ScoredIndex> TimedScorer::ScoreTopP(
    const qse::Vector& embedded_query, const qse::EmbeddedDatabase::View& db,
    size_t p, qse::FilterPrecision precision,
    qse::FilterScanStats* scan_stats) const {
  if (!g_trace.load(std::memory_order_relaxed)) {
    return inner_->ScoreTopP(embedded_query, db, p, precision, scan_stats);
  }
  qse::FilterScanStats local;
  qse::FilterScanStats* stats = scan_stats != nullptr ? scan_stats : &local;
  std::vector<qse::ScoredIndex> top;
  {
    Span span(kFilter);
    top = inner_->ScoreTopP(embedded_query, db, p, precision, stats);
  }
  size_t element_bytes = precision == qse::FilterPrecision::kExact64    ? 8
                         : precision == qse::FilterPrecision::kFilter32 ? 4
                                                                        : 1;
  g_counters.filter_rows += stats->rows_visited;
  g_counters.filter_pruned += stats->rows_pruned;
  g_counters.filter_bytes += stats->rows_visited * db.dims() * element_bytes;
  return top;
}

qse::StatusOr<qse::RetrievalResponse> TimedBackend::Retrieve(
    const qse::RetrievalRequest& request) const {
  Span span(read_layer_);
  return inner_->Retrieve(request);
}

qse::StatusOr<std::vector<qse::RetrievalResponse>> TimedBackend::RetrieveBatch(
    const std::vector<qse::DxToDatabaseFn>& queries,
    const qse::RetrievalOptions& options) const {
  if (!stamp_batches_) {
    Span span(read_layer_);
    return inner_->RetrieveBatch(queries, options);
  }
  uint64_t start = NowNs();
  auto out = [&] {
    Span span(read_layer_);
    return inner_->RetrieveBatch(queries, options);
  }();
  uint64_t end = NowNs();
  for (const qse::DxToDatabaseFn& q : queries) {
    const CountingDx* dx = q.target<CountingDx>();
    if (dx == nullptr) continue;
    dx->record->exec_start_ns = start;
    dx->record->exec_end_ns = end;
  }
  return out;
}

qse::StatusOr<qse::ScanCandidatesResult> TimedBackend::ScanCandidates(
    const qse::Vector& embedded_query,
    const qse::RetrievalOptions& options) const {
  auto out = [&] {
    Span span(read_layer_);
    return inner_->ScanCandidates(embedded_query, options);
  }();
  if (out.ok() && read_layer_ == kShardScan &&
      g_trace.load(std::memory_order_relaxed)) {
    g_counters.listed_candidates += out->candidates.size();
  }
  return out;
}

qse::Status TimedBackend::Insert(size_t db_id, const qse::DxToDatabaseFn& dx) {
  Span span(write_layer_);
  return inner_->Insert(db_id, dx);
}

qse::Status TimedBackend::InsertEmbedded(size_t db_id,
                                         const qse::Vector& embedded_row) {
  Span span(write_layer_);
  return inner_->InsertEmbedded(db_id, embedded_row);
}

qse::Status TimedBackend::Remove(size_t db_id) {
  Span span(write_layer_);
  return inner_->Remove(db_id);
}

}  // namespace perfbench
