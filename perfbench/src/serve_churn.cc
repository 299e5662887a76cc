// serve_churn: an AsyncRetrievalServer over a DurableBackend over one
// monolithic engine, ~20k rows of cheap L1 DX that fit in cache.  Open
// loop: Poisson arrivals at a fixed absolute rate (never re-measured per
// run), 90% reads and 10% Insert/Remove.  Writes next to reads exercise
// admission, batching, the epoch publish, the WAL with its snapshots and
// the quality audits, which no other workload does.
#include <time.h>
#include <sys/prctl.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <numeric>
#include <thread>

#include "perfbench/src/common.h"
#include "src/obs/metric_registry.h"
#include "src/obs/quality_monitor.h"
#include "src/persist/durability.h"
#include "src/persist/durable_backend.h"
#include "src/retrieval/embedder_adapters.h"
#include "src/retrieval/filter_refine.h"
#include "src/server/async_retrieval_server.h"

namespace perfbench {
namespace {

void SleepUntilNs(uint64_t t) {
  timespec ts{static_cast<time_t>(t / 1000000000ull),
              static_cast<long>(t % 1000000000ull)};
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

uint64_t SnapshotsTaken() {
  return qse::obs::MetricRegistry::Global()
      .GetCounter("qse_persist_snapshots_total")
      ->Value();
}

/// `count` Poisson arrival offsets (ns) at `rate` per second.
std::vector<uint64_t> Arrivals(size_t count, double rate, qse::Rng* rng) {
  std::vector<uint64_t> at(count);
  double t = 0;
  for (uint64_t& a : at) {
    t += -std::log(1.0 - rng->Uniform(0, 1)) / rate;
    a = static_cast<uint64_t>(t * 1e9);
  }
  return at;
}

/// One open-loop sender's clock.  Latency runs from the due time when
/// an earlier operation kept the sender busy past it, and from the
/// actual send otherwise: the OS's wake-up delay is the generator's lag,
/// reported on its own, not the system's latency.
struct Sender {
  uint64_t busy_until = 0;
  double lag_ns = 0;
  size_t on_time = 0;

  void Wait(uint64_t due, RequestRecord* rec) {
    if (!slack_set_) {
      // The default 50 us timer slack would add to every wake-up.
      prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
      slack_set_ = true;
    }
    if (NowNs() < due) SleepUntilNs(due);
    uint64_t sent = NowNs();
    rec->start_ns = busy_until > due ? due : sent;
    if (busy_until <= due) {
      lag_ns += static_cast<double>(sent - due);
      ++on_time;
    }
    rec->submit_ns = NowNs();
  }

 private:
  bool slack_set_ = false;
};

struct Op {
  enum Kind { kRead, kInsert, kRemove } kind = kRead;
  size_t arg = 0;  // query index, or database id
};

/// The database ids the workload may still insert or remove.
struct WriteState {
  std::vector<size_t> live;
  size_t next_insert = 0;
  size_t insert_end = 0;
};

/// One write drawn from `rng`: nine inserts for every remove.  A remove
/// copies the whole database version; at nine to one the write median
/// stays inside the insert distribution instead of jumping between the
/// two modes from run to run.
Op NextWrite(WriteState* state, qse::Rng* rng) {
  bool insert = state->live.empty() || rng->Index(10) != 0;
  if (insert && state->next_insert < state->insert_end) {
    size_t id = state->next_insert++;
    state->live.push_back(id);
    return {Op::kInsert, id};
  }
  size_t i = rng->Index(state->live.size());
  size_t id = state->live[i];
  state->live[i] = state->live.back();
  state->live.pop_back();
  return {Op::kRemove, id};
}

class ServeChurn : public Workload {
 public:
  explicit ServeChurn(const Config& config) : config_(config) {
    static int instances = 0;
    wal_dir_ = config.scratch_dir + "/serve_churn-" + std::to_string(instances++);
    if (config.tiny) {
      n_ = 2000;
      num_queries_ = 16;
      spec_ = {60, 800, 12, 16, 16, 5};
      ops_ = 200;
    } else {
      ops_ = static_cast<size_t>(config.seconds * rate_ + 0.5);
    }
    pool_ = 2 * ops_;
  }

  ~ServeChurn() override {
    Stop();
    std::error_code ec;
    std::filesystem::remove_all(wal_dir_, ec);
  }

  void Setup() override {
    VectorData data =
        MakeVectorData(n_ + pool_, spec_.sample, num_queries_, config_.seed);
    objects_ = std::move(data.objects);
    queries_ = std::move(data.queries);
    query_dx_ = std::make_unique<VectorDx>(&queries_, &objects_);
    object_dx_ = std::make_unique<VectorDx>(&objects_, &objects_);
    SourceOracle oracle(object_dx_.get(), objects_.size());

    db_ids_.resize(n_);
    std::iota(db_ids_.begin(), db_ids_.end(), 0);
    model_ = TrainSeQs(
        oracle, std::vector<size_t>(db_ids_.begin(), db_ids_.begin() + spec_.sample),
        spec_, kModelSeed);
    adapter_ = std::make_unique<qse::QseEmbedderAdapter>(&model_);
    db_ = std::make_unique<qse::EmbeddedDatabase>(
        qse::EmbedDatabase(*adapter_, oracle, db_ids_, 1));
    scorer_ = std::make_unique<qse::QuerySensitiveScorer>(&model_);
    embedder_ = std::make_unique<TimedEmbedder>(adapter_.get());
    timed_scorer_ = std::make_unique<TimedScorer>(scorer_.get());
    engine_ = std::make_unique<qse::RetrievalEngine>(
        embedder_.get(), timed_scorer_.get(), db_.get(), db_ids_);
    inner_ = std::make_unique<TimedBackend>(engine_.get(), kEngine,
                                            kEngineWrite);

    qse::persist::DurabilityOptions durability;
    durability.dir = wal_dir_;
    durability.fsync = qse::persist::FsyncPolicy::kEveryN;
    durability.fsync_every_n = 64;
    // About five compactions per run, so every run snapshots at least
    // three times.
    durability.snapshot_every_records =
        std::max<size_t>(1, static_cast<size_t>(ops_ * kWriteFraction / 5));
    auto manager = qse::persist::DurabilityManager::Open(durability);
    if (!manager.ok()) {
      std::fprintf(stderr, "WAL open failed: %s\n",
                   manager.status().ToString().c_str());
      std::exit(2);
    }
    manager_ = std::move(manager).value();
    durable_ = std::make_unique<qse::persist::DurableBackend>(
        inner_.get(), embedder_.get(), manager_.get(),
        std::vector<const qse::EmbeddedDatabase*>{db_.get()});
    // The bulk-loaded rows were never logged: a base snapshot makes the
    // directory alone enough to recover the database.
    qse::Status base = durable_->WriteSnapshotNow();
    if (!base.ok()) {
      std::fprintf(stderr, "base snapshot failed: %s\n",
                   base.ToString().c_str());
      std::exit(2);
    }
    outer_ = std::make_unique<TimedBackend>(durable_.get(), kServerExec,
                                            kWriteRoot, /*stamp_batches=*/true);
    qse::obs::QualityMonitorOptions audit;
    audit.sample_every_n = 64;
    monitor_ = std::make_unique<qse::obs::QualityMonitor>(audit);
    qse::AsyncServerOptions server;
    server.queue_capacity = 4096;
    server.num_workers = 1;
    server.retrieve_threads = 1;
    server.quality_monitor = monitor_.get();
    server_ = std::make_unique<qse::AsyncRetrievalServer>(
        static_cast<qse::RetrievalBackend*>(outer_.get()), server);
    write_state_.live = db_ids_;
    write_state_.next_insert = n_;
    write_state_.insert_end = n_ + pool_;

    // One record per read: a sampled audit calls the read's dx later,
    // from the monitor's thread, until the Flush below.
    std::vector<RequestRecord> warm(std::min<size_t>(num_queries_, 32));
    for (size_t q = 0; q < warm.size(); ++q) {
      (void)server_->Retrieve(
          {CountingDx{query_dx_.get(), q, &warm[q]}, options_, nullptr});
    }
    monitor_->Flush();
  }

  RunResult Run(bool traced) override {
    // Reads and writes arrive as two independent Poisson streams whose
    // sum has the configured rate and a 90/10 mix.  Each stream has its
    // own sender thread, so a slow write never delays a read's send.
    qse::Rng rng(config_.seed * 7919 + (runs_++));
    const size_t writes = static_cast<size_t>(ops_ * kWriteFraction + 0.5);
    const size_t reads = ops_ - writes;
    std::vector<Op> read_ops(reads), write_ops(writes);
    std::vector<uint64_t> read_at = Arrivals(reads, rate_ * (1 - kWriteFraction), &rng);
    std::vector<uint64_t> write_at = Arrivals(writes, rate_ * kWriteFraction, &rng);
    for (Op& op : read_ops) op = {Op::kRead, rng.Index(num_queries_)};
    for (Op& op : write_ops) op = NextWrite(&write_state_, &rng);
    std::vector<RequestRecord> read_recs(reads), write_recs(writes);
    std::vector<Calibration> read_cal(reads);
    std::vector<qse::Future<qse::StatusOr<qse::RetrievalResponse>>> pending;
    pending.reserve(reads);
    std::atomic<size_t> ready{0};

    RunResult r;
    qse::ServerStats stats0 = server_->stats();
    uint64_t snapshots0 = SnapshotsTaken();
    uint64_t audits0 = monitor_->stats().completed;
    BeginPhase(traced, &r);
    const uint64_t base = NowNs() + 2000000;
    Sender writer_lag, reader_lag;
    std::vector<qse::Status> write_status(writes);
    std::thread writer([&] {
      for (size_t i = 0; i < writes; ++i) {
        RequestRecord& rec = write_recs[i];
        writer_lag.Wait(base + write_at[i], &rec);
        const Op& op = write_ops[i];
        {
          Span root(kClient);
          write_status[i] =
              op.kind == Op::kInsert
                  ? server_->Insert(op.arg,
                                    CountingDx{object_dx_.get(), op.arg, &rec})
                  : server_->Remove(op.arg);
        }
        rec.ready_ns = NowNs();
        writer_lag.busy_until = rec.ready_ns;
      }
    });
    for (size_t i = 0; i < reads; ++i) {
      RequestRecord& rec = read_recs[i];
      reader_lag.Wait(base + read_at[i], &rec);
      pending.push_back(server_->Submit(
          {CountingDx{query_dx_.get(), read_ops[i].arg, &rec}, options_,
           nullptr}));
      // Runs on the worker that completed the read, so the calibration
      // kernel sees that worker's vCPU.
      pending.back().OnReady(
          [&rec, &ready, cal = &read_cal[i]](
              const qse::StatusOr<qse::RetrievalResponse>&) {
            rec.ready_ns = NowNs();
            *cal = Calibrate();
            ready.fetch_add(1, std::memory_order_release);
          });
      reader_lag.busy_until = NowNs();
    }
    writer.join();
    for (auto& future : pending) future.Wait();
    // OnReady runs just after the value is published; wait for every
    // callback so each ready stamp is final.
    while (ready.load(std::memory_order_acquire) < pending.size()) {
      std::this_thread::yield();
    }
    EndPhase(&r);
    monitor_->Flush();

    double unattributed = static_cast<double>(r.layers.self_ns[kClient]);
    double queue_ns = 0, exec_ns = 0;
    for (size_t i = 0; i < reads; ++i) {
      const RequestRecord& rec = read_recs[i];
      const auto& response = pending[i].Get();
      ReadAnswer answer;
      answer.query = read_ops[i].arg;
      answer.ok = response.ok();
      if (answer.ok) {
        for (const qse::ScoredIndex& nb : response->neighbors) {
          answer.scores.push_back(nb.score);
        }
      } else {
        std::fprintf(stderr, "read failed: %s\n",
                     response.status().ToString().c_str());
      }
      r.failed += answer.ok ? 0 : 1;
      r.answers.push_back(std::move(answer));
      r.read_ms.push_back(1e-6 * static_cast<double>(rec.ready_ns - rec.start_ns));
      r.e2e_ns += static_cast<double>(rec.ready_ns - rec.start_ns);
      r.read_dx += rec.dx_calls;
      // [start, submit] is the sender's own time; [submit, exec start]
      // admission and batching; [exec start, exec end] the backend call
      // (partitioned by the seams); [exec end, ready] completion.
      unattributed += static_cast<double>(rec.submit_ns - rec.start_ns);
      if (rec.exec_end_ns != 0) {
        queue_ns += static_cast<double>(rec.exec_start_ns - rec.submit_ns);
        exec_ns += static_cast<double>(rec.exec_end_ns - rec.exec_start_ns);
      }
      ++r.reads;
    }
    for (size_t i = 0; i < writes; ++i) {
      const RequestRecord& rec = write_recs[i];
      r.write_ms.push_back(1e-6 * static_cast<double>(rec.ready_ns - rec.start_ns));
      r.e2e_ns += static_cast<double>(rec.ready_ns - rec.start_ns);
      unattributed += static_cast<double>(rec.submit_ns - rec.start_ns);
      ++r.writes;
      if (!write_status[i].ok()) {
        ++r.failed;
        std::fprintf(stderr, "write failed: %s\n",
                     write_status[i].ToString().c_str());
      }
    }
    r.unattributed_ns = unattributed;
    r.cal = std::move(read_cal);
    for (const Calibration& c : r.cal) r.cal_cpu_ns += c.cpu_ns;

    qse::ServerStats stats1 = server_->stats();
    double batches = 0, batched = 0;
    for (size_t b = 0; b < stats1.batch_size_histogram.size(); ++b) {
      double count = static_cast<double>(
          stats1.batch_size_histogram[b] -
          (b < stats0.batch_size_histogram.size()
               ? stats0.batch_size_histogram[b]
               : 0));
      batches += count;
      batched += count * static_cast<double>(b + 1);
    }
    double refused = static_cast<double>(
        (stats1.rejected - stats0.rejected) + (stats1.shed - stats0.shed) +
        (stats1.expired - stats0.expired));
    double n_reads = static_cast<double>(r.reads);
    double n_writes = static_cast<double>(r.writes);
    r.layer_values["server.queue_ms"] = 1e-6 * Ratio(queue_ns, n_reads);
    r.layer_values["server.exec_ms"] = 1e-6 * Ratio(exec_ns, n_reads);
    r.layer_values["server.batch_size"] = Ratio(batched, batches);
    r.layer_values["server.refused_frac"] = Ratio(
        refused, static_cast<double>(stats1.submitted - stats0.submitted));
    r.layer_values["persist.wal_ms"] = 1e-6 * Ratio(
        static_cast<double>(r.layers.self_ns[kWriteRoot]), n_writes);
    r.layer_values["persist.bytes_per_write"] =
        Ratio(static_cast<double>(r.after.wchar - r.before.wchar), n_writes);
    r.layer_values["persist.snapshots"] =
        static_cast<double>(SnapshotsTaken() - snapshots0);
    r.layer_values["obs.audits"] =
        static_cast<double>(monitor_->stats().completed - audits0);
    r.layer_values["host.gen_lag_ms"] =
        1e-6 * Ratio(reader_lag.lag_ns + writer_lag.lag_ns,
                     static_cast<double>(reader_lag.on_time + writer_lag.on_time));
    return r;
  }
  double Verify(const RunResult& first,
                std::vector<std::string>* errors) override {
    // Live answers were served from whichever snapshot each read pinned,
    // so only their shape is checkable here; rows do not map to ids
    // after concurrent removals.
    for (const ReadAnswer& a : first.answers) {
      if (!a.ok) continue;
      bool good = a.scores.size() == options_.k;
      for (size_t i = 1; good && i < a.scores.size(); ++i) {
        good = a.scores[i - 1] <= a.scores[i];
      }
      if (!good) {
        errors->push_back(Format("serve_churn query %zu: malformed answer",
                                 a.query));
        break;
      }
    }
    Stop();

    // Quality of the final database, read quiescently through the same
    // engine: deterministic for the seed.
    std::vector<size_t> live = engine_->db_ids();
    std::vector<ReadAnswer> answers;
    RequestRecord record;
    for (size_t q = 0; q < num_queries_; ++q) {
      record = RequestRecord{};
      auto response = engine_->Retrieve(
          {CountingDx{query_dx_.get(), q, &record}, options_, nullptr});
      ReadAnswer a;
      a.query = q;
      a.ok = response.ok();
      if (!a.ok) {
        errors->push_back(Format("serve_churn final read %zu failed", q));
        continue;
      }
      for (const qse::ScoredIndex& nb : response->neighbors) {
        a.ids.push_back(engine_->db_id_of(nb.index));
        a.scores.push_back(nb.score);
      }
      answers.push_back(std::move(a));
    }
    auto truth = GroundTruth(*query_dx_, num_queries_, live, options_.k);
    double recall = CheckAnswers(answers, *query_dx_, truth, options_.k, errors);

    CheckRecovery(errors);
    return recall;
  }

 private:
  static constexpr double kWriteFraction = 0.1;

  /// Shuts the server down and closes the WAL (idempotent).
  void Stop() {
    if (server_) server_->Shutdown();
    server_.reset();
    if (monitor_) monitor_->Shutdown();
    monitor_.reset();
    outer_.reset();
    durable_.reset();
    manager_.reset();
  }

  /// Recovers the WAL directory into a fresh engine and compares it with
  /// the live one: same ids in the same row order, bit-identical rows.
  void CheckRecovery(std::vector<std::string>* errors) {
    qse::persist::DurabilityOptions durability;
    durability.dir = wal_dir_;
    auto manager = qse::persist::DurabilityManager::Open(durability);
    if (!manager.ok()) {
      errors->push_back("WAL reopen failed: " + manager.status().ToString());
      return;
    }
    qse::EmbeddedDatabase db(adapter_->dims());
    qse::RetrievalEngine engine(adapter_.get(), scorer_.get(), &db, {});
    qse::Status installed = (*manager)->InstallSnapshot({&db});
    if (!installed.ok()) {
      errors->push_back("snapshot install failed: " + installed.ToString());
      return;
    }
    engine.RebuildIdIndex();
    auto replayed = (*manager)->Replay(&engine);
    if (!replayed.ok()) {
      errors->push_back("WAL replay failed: " + replayed.status().ToString());
      return;
    }
    if (db.ids() != db_->ids()) {
      errors->push_back(Format("recovered ids differ: %zu rows recovered, "
                               "%zu live",
                               db.size(), db_->size()));
      return;
    }
    for (size_t i = 0; i < db.size(); ++i) {
      if (db.RowVector(i) != db_->RowVector(i)) {
        errors->push_back(Format("recovered row %zu differs", i));
        return;
      }
    }
  }

  Config config_;
  std::string wal_dir_;
  size_t n_ = 20000;
  size_t num_queries_ = 256;
  TrainSpec spec_{200, 5000, 24, 40, 24, 5};
  qse::RetrievalOptions options_{10, 50};
  size_t ops_ = 0;
  // Fixed offered load (operations per second): under a fifth of one
  // worker's capacity on a 4-vCPU x86 VM, so queueing stays a small part
  // of a read's latency and nothing is refused.
  double rate_ = 200;
  size_t pool_ = 0;
  size_t runs_ = 0;

  std::vector<qse::Vector> objects_;
  std::vector<qse::Vector> queries_;
  std::unique_ptr<VectorDx> query_dx_;
  std::unique_ptr<VectorDx> object_dx_;
  std::vector<size_t> db_ids_;
  qse::QuerySensitiveEmbedding model_;
  std::unique_ptr<qse::QseEmbedderAdapter> adapter_;
  std::unique_ptr<qse::EmbeddedDatabase> db_;
  std::unique_ptr<qse::QuerySensitiveScorer> scorer_;
  std::unique_ptr<TimedEmbedder> embedder_;
  std::unique_ptr<TimedScorer> timed_scorer_;
  std::unique_ptr<qse::RetrievalEngine> engine_;
  std::unique_ptr<TimedBackend> inner_;
  std::unique_ptr<qse::persist::DurabilityManager> manager_;
  std::unique_ptr<qse::persist::DurableBackend> durable_;
  std::unique_ptr<TimedBackend> outer_;
  std::unique_ptr<qse::obs::QualityMonitor> monitor_;
  std::unique_ptr<qse::AsyncRetrievalServer> server_;
  WriteState write_state_;
};

}  // namespace

std::unique_ptr<Workload> MakeServeChurn(const Config& config) {
  return std::make_unique<ServeChurn>(config);
}

}  // namespace perfbench
