// Layer timing at the library's injection seams.
//
// The benchmark never edits the library: it times each layer by wrapping
// the objects it already hands to the library (Embedder, FilterScorer,
// the dx closure, RetrievalBackends) in forwarding decorators.  Each
// thread keeps a PhaseClock: a stack of open spans whose elapsed time is
// charged to the span on top, so every nanosecond inside a root span is
// charged to exactly one layer (its self time).  The decorators are
// installed in both runs; they only forward while tracing is off.
#ifndef PERFBENCH_SEAMS_H_
#define PERFBENCH_SEAMS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <thread>

#include "src/embedding/embedder.h"
#include "src/retrieval/filter_scorer.h"
#include "src/retrieval/retrieval_backend.h"

namespace perfbench {

enum Layer : int {
  kClient,        // benchmark loop outside every seam (unattributed)
  kEngine,        // monolithic engine outside embed/filter/refine
  kEmbed,         // Embedder::Embed on the read path, minus its DX
  kDxEmbed,       // DX evaluated while embedding a query
  kFilter,        // FilterScorer::ScoreTopP
  kRefine,        // engine time after the filter, minus refine DX
  kDxRefine,      // DX evaluated by refine
  kShardScan,     // shard backend ScanCandidates minus its filter
  kMerge,         // sharded engine outside embed/scans/refine
  kRemoteServer,  // server-side backend ScanCandidates minus its filter
  kServerExec,    // the async server's backend call outside the engine
  kWriteRoot,     // outermost write decorator (WAL, routing) self time
  kEngineWrite,   // engine Insert/InsertEmbedded/Remove self time
  kEmbedWrite,    // embedding a new object on the write path
  kDxWrite,       // DX evaluated by a write
  kNumLayers
};

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Per-layer sums over every thread's clock.
struct LayerTotals {
  std::array<uint64_t, kNumLayers> self_ns{};
  std::array<uint64_t, kNumLayers> incl_ns{};
  std::array<uint64_t, kNumLayers> calls{};
};

/// True while the traced run is measuring; the decorators forward
/// without timing otherwise.
extern std::atomic<bool> g_trace;

/// Seam counters that are not times, summed over the traced run.
struct SeamCounters {
  std::atomic<uint64_t> filter_rows{0};
  std::atomic<uint64_t> filter_pruned{0};
  std::atomic<uint64_t> filter_bytes{0};
  std::atomic<uint64_t> listed_candidates{0};  // shard lists, summed
  void Reset();
};
extern SeamCounters g_counters;

/// One thread's span stack.  Only its own thread writes it; the totals
/// are atomics so the main thread can sum and reset them between runs
/// while the library's threads sit idle.
class PhaseClock {
 public:
  /// The calling thread's clock (created and registered on first use;
  /// clocks live until process exit so finished threads still count).
  static PhaseClock& Here();

  bool active() const { return depth_ > 0; }
  Layer top() const { return stack_[depth_ - 1].label; }

  void Enter(Layer layer);
  void Exit();
  /// Charges the time so far to the current top label and renames it.
  void Relabel(Layer layer);
  /// Relabel back to the label the top span was entered with.
  void RestoreBase() { Relabel(stack_[depth_ - 1].base); }

  void Reset();
  void AddTo(LayerTotals* totals) const;

 private:
  struct Frame {
    Layer label;
    Layer base;
    uint64_t start;
  };
  static constexpr int kMaxDepth = 16;
  static void Bump(std::atomic<uint64_t>& cell, uint64_t v) {
    cell.store(cell.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
  }

  Frame stack_[kMaxDepth];
  int depth_ = 0;
  uint64_t last_ = 0;
  std::array<std::atomic<uint64_t>, kNumLayers> self_{};
  std::array<std::atomic<uint64_t>, kNumLayers> incl_{};
  std::array<std::atomic<uint64_t>, kNumLayers> calls_{};
};

LayerTotals SumAllClocks();
void ResetAllClocks();

/// RAII span on the calling thread's clock; a no-op while not tracing.
class Span {
 public:
  explicit Span(Layer layer) : on_(g_trace.load(std::memory_order_relaxed)) {
    if (on_) PhaseClock::Here().Enter(layer);
  }
  ~Span() {
    if (on_) PhaseClock::Here().Exit();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool on_;
};

/// One operation's bookkeeping, owned by the benchmark loop.  The dx
/// closure of a read counts into it; the async-server workload also
/// stamps its pipeline times here.
struct RequestRecord {
  uint64_t dx_calls = 0;
  std::thread::id owner{};
  bool owned = false;
  uint64_t start_ns = 0;   // latency start: due if the sender was late
  uint64_t submit_ns = 0;  // handed to the server
  uint64_t exec_start_ns = 0;
  uint64_t exec_end_ns = 0;
  uint64_t ready_ns = 0;
};

/// Exact distances from query objects to database objects.  The raw
/// measure: no memo and no disk cache, so a repeated query costs what
/// the first one did.
class DxSource {
 public:
  virtual ~DxSource() = default;
  virtual double Distance(size_t query, size_t db_id) const = 0;
};

/// The dx closure the benchmark hands to the library for one read or
/// write.  Counts the calls made by the thread serving the request (not
/// a background audit re-scoring the response later); while tracing,
/// times them as embed, refine or write DX by the span they run under.
struct CountingDx {
  const DxSource* source;
  size_t query;
  RequestRecord* record;

  double operator()(size_t db_id) const;
};

/// Embedder decorator: times Embed on the read path and the write path.
class TimedEmbedder : public qse::Embedder {
 public:
  explicit TimedEmbedder(const qse::Embedder* inner) : inner_(inner) {}
  size_t dims() const override { return inner_->dims(); }
  qse::Vector Embed(const qse::DxToDatabaseFn& dx,
                    size_t* num_exact = nullptr) const override;
  size_t EmbeddingCost() const override { return inner_->EmbeddingCost(); }

 private:
  const qse::Embedder* inner_;
};

/// FilterScorer decorator: times ScoreTopP and sums its scan counters.
class TimedScorer : public qse::FilterScorer {
 public:
  explicit TimedScorer(const qse::FilterScorer* inner) : inner_(inner) {}
  void Score(const qse::Vector& embedded_query,
             const qse::EmbeddedDatabase::View& db,
             std::vector<double>* scores) const override {
    inner_->Score(embedded_query, db, scores);
  }
  std::vector<qse::ScoredIndex> ScoreTopP(
      const qse::Vector& embedded_query, const qse::EmbeddedDatabase::View& db,
      size_t p,
      qse::FilterPrecision precision = qse::FilterPrecision::kExact64,
      qse::FilterScanStats* scan_stats = nullptr) const override;

 private:
  const qse::FilterScorer* inner_;
};

/// RetrievalBackend decorator: reads run under `read_layer`, mutations
/// under `write_layer`.  Used for shard backends, the backend given to
/// a server, and the inner backend of DurableBackend.  With
/// `stamp_batches`, RetrieveBatch stamps its start and end into the
/// RequestRecord behind each query's CountingDx.
class TimedBackend : public qse::RetrievalBackend {
 public:
  TimedBackend(qse::RetrievalBackend* inner, Layer read_layer,
               Layer write_layer, bool stamp_batches = false)
      : inner_(inner),
        read_layer_(read_layer),
        write_layer_(write_layer),
        stamp_batches_(stamp_batches) {}

  qse::StatusOr<qse::RetrievalResponse> Retrieve(
      const qse::RetrievalRequest& request) const override;
  qse::StatusOr<std::vector<qse::RetrievalResponse>> RetrieveBatch(
      const std::vector<qse::DxToDatabaseFn>& queries,
      const qse::RetrievalOptions& options) const override;
  qse::StatusOr<qse::ScanCandidatesResult> ScanCandidates(
      const qse::Vector& embedded_query,
      const qse::RetrievalOptions& options) const override;
  qse::Status Insert(size_t db_id, const qse::DxToDatabaseFn& dx) override;
  qse::Status InsertEmbedded(size_t db_id,
                             const qse::Vector& embedded_row) override;
  qse::Status Remove(size_t db_id) override;
  size_t size() const override { return inner_->size(); }
  size_t db_id_of(size_t neighbor_index) const override {
    return inner_->db_id_of(neighbor_index);
  }

 private:
  qse::RetrievalBackend* inner_;
  Layer read_layer_;
  Layer write_layer_;
  bool stamp_batches_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SEAMS_H_
