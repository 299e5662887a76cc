// Tests for the background quality monitor: Page-Hinkley drift detector
// behavior (stationary / abrupt / gradual / hysteresis clear / recurrent
// re-alarm), exact audit math at p = n, queue shedding under a stalled
// worker, engine and server integration, end-to-end drift detection on a
// drifting oracle, and audits racing concurrent mutation (TSan target).
#include "src/obs/quality_monitor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "src/embedding/fastmap.h"
#include "src/retrieval/filter_refine.h"
#include "src/retrieval/retrieval_engine.h"
#include "src/server/async_retrieval_server.h"
#include "src/util/random.h"
#include "tests/drift_generator.h"
#include "tests/test_util.h"

namespace qse {
namespace obs {
namespace {

// --- PageHinkleyDetector ------------------------------------------------

/// One audited recall@k sample: N(mean, sd) clipped to [0, 1] and rounded
/// to a multiple of 1/k, the shape per-audit recall takes.
double NoisyRecall(Rng& rng, double mean, double sd, size_t k) {
  const double x = std::clamp(rng.Gaussian(mean, sd), 0.0, 1.0);
  return std::round(x * static_cast<double>(k)) / static_cast<double>(k);
}

TEST(PageHinkleyTest, StationarySignalNeverAlarms) {
  // Noisy stationary recall streams: perfbench serve_churn's measured
  // spread (0.64 +- 0.17 at k = 10), a high skewed one, a coarse k = 5
  // one, and 0/1 recall at k = 1.  Thresholds in the input's own noise
  // units must absorb every one of them indefinitely.
  struct Noise {
    double mean, sd;
    size_t k;
  };
  for (const Noise& noise : {Noise{0.64, 0.17, 10}, Noise{0.9, 0.1, 10},
                             Noise{0.5, 0.3, 5}, Noise{0.8, 0.4, 1}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      PageHinkleyDetector detector;
      for (int i = 0; i < 20000; ++i) {
        detector.Update(NoisyRecall(rng, noise.mean, noise.sd, noise.k));
        ASSERT_FALSE(detector.alarmed())
            << "mean " << noise.mean << " sd " << noise.sd << " k "
            << noise.k << " seed " << seed << " sample " << i;
      }
    }
  }
  // A healthy high-recall filter: perfect audits with a rare miss.  The
  // running spread is tiny, so a miss standardises to tens of standard
  // deviations; no single sample may carry the test past lambda_sd.
  struct RareMiss {
    double miss_rate, miss_recall;
  };
  for (const RareMiss& miss : {RareMiss{0.001, 0.9}, RareMiss{0.001, 0.99},
                               RareMiss{0.001, 0.0}, RareMiss{0.02, 0.9}}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Rng rng(seed);
      PageHinkleyDetector detector;
      for (int i = 0; i < 20000; ++i) {
        detector.Update(rng.Uniform() < miss.miss_rate ? miss.miss_recall
                                                        : 1.0);
        ASSERT_FALSE(detector.alarmed())
            << "miss rate " << miss.miss_rate << " miss recall "
            << miss.miss_recall << " seed " << seed << " sample " << i;
      }
    }
  }
  // After b identical samples the next differing one standardises to
  // -sqrt(b) however small the difference: one 0.9 (or one total miss)
  // after thousands of perfect audits must not alarm on its own.
  for (double miss : {0.9, 0.0}) {
    PageHinkleyDetector detector;
    for (int i = 0; i < 5000; ++i) detector.Update(1.0);
    detector.Update(miss);
    EXPECT_FALSE(detector.alarmed()) << "one miss at " << miss;
    for (int i = 0; i < 5000; ++i) {
      detector.Update(1.0);
      ASSERT_FALSE(detector.alarmed()) << "one miss at " << miss;
    }
  }
}

TEST(PageHinkleyTest, NoisyDropAlarmsWithinBoundOnEveryDriftKind) {
  // serve_churn's noise with a 0.1 recall drop (0.59 sd) scheduled by
  // each DriftKind after 2000 clean audits.  kNone never alarms; an
  // abrupt or recurrent drop alarms within 250 audits of the onset
  // (lambda_sd / (0.59 - delta_sd) ~ 90 expected), a 200-step ramp
  // within the ramp plus 250.
  constexpr size_t kOnset = 2000;
  constexpr size_t kBound = 250;
  const DriftSchedule schedules[] = {
      DriftSchedule{}, test::AbruptDrift(kOnset, 0.1),
      test::GradualDrift(kOnset, 200, 0.1),
      test::RecurrentDrift(kOnset, 1000, 0.1)};
  for (const DriftSchedule& schedule : schedules) {
    const size_t ramp = schedule.kind == DriftKind::kGradual ? 200 : 0;
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      SCOPED_TRACE(std::string(DriftKindName(schedule.kind)) + " seed " +
                   std::to_string(seed));
      Rng rng(seed);
      PageHinkleyDetector detector;
      size_t alarm_at = 0;
      for (size_t t = 0; t < kOnset + 4000 && alarm_at == 0; ++t) {
        const double mean =
            0.64 - schedule.magnitude * DriftFactor(schedule, t);
        if (detector.Update(NoisyRecall(rng, mean, 0.17, 10))) {
          alarm_at = t;
        }
      }
      if (schedule.kind == DriftKind::kNone) {
        EXPECT_EQ(alarm_at, 0u);
        continue;
      }
      ASSERT_TRUE(detector.alarmed());
      EXPECT_GE(alarm_at, kOnset);
      EXPECT_LE(alarm_at, kOnset + ramp + kBound);
    }
  }
}

TEST(PageHinkleyTest, NotArmedBeforeMinSamples) {
  PageHinkleyOptions options;
  options.min_samples = 64;
  PageHinkleyDetector detector(options);
  // A catastrophic drop after 48 clean samples: the cumulative gap blows
  // past lambda_sd within a few samples, but the test must stay unarmed
  // until min_samples.
  for (int i = 0; i < 48; ++i) detector.Update(1.0);
  for (int i = 48; i < 63; ++i) {
    detector.Update(0.0);
    EXPECT_FALSE(detector.alarmed()) << "sample " << i;
  }
  detector.Update(0.0);  // 64th sample: armed, and the gap is huge.
  EXPECT_TRUE(detector.alarmed());
}

TEST(PageHinkleyTest, AbruptDropAlarmsWithinExpectedLatency) {
  PageHinkleyDetector detector;  // delta_sd 0.25, lambda_sd 30
  for (int i = 0; i < 128; ++i) {
    detector.Update(0.95);
    ASSERT_FALSE(detector.alarmed());
  }
  // After b noiseless samples, the i-th sample of a new level standardises
  // to exactly -sqrt(b / i), winsorised to -3 for every i <= 14: the gap
  // grows by 3 - delta_sd = 2.75 a sample and passes lambda_sd on the
  // 11th.  Update must return true exactly once, on the raising sample.
  int state_changes = 0;
  int samples_to_alarm = 0;
  for (int i = 0; i < 16 && !detector.alarmed(); ++i) {
    if (detector.Update(0.55)) ++state_changes;
    ++samples_to_alarm;
  }
  EXPECT_TRUE(detector.alarmed());
  EXPECT_EQ(state_changes, 1);
  EXPECT_EQ(samples_to_alarm, 11);
}

TEST(PageHinkleyTest, GradualRampAlarmsBeforeBottomingOut) {
  PageHinkleyDetector detector;
  for (int i = 0; i < 64; ++i) detector.Update(0.9);
  // 0.9 -> 0.5 over 200 steps (0.002/step): slower than abrupt but the
  // deficit still accumulates past lambda_sd well before the ramp ends.
  bool alarmed_mid_ramp = false;
  for (int i = 0; i < 200; ++i) {
    detector.Update(0.9 - 0.002 * (i + 1));
    if (detector.alarmed()) {
      alarmed_mid_ramp = true;
      break;
    }
  }
  EXPECT_TRUE(alarmed_mid_ramp);
}

TEST(PageHinkleyTest, ClearsAfterStabilizingAndRealarmsOnNextShift) {
  PageHinkleyOptions options;
  options.clear_after = 32;
  PageHinkleyDetector detector(options);
  for (int i = 0; i < 64; ++i) detector.Update(0.95);
  while (!detector.alarmed()) detector.Update(0.55);

  // The signal stabilizes at the new level: the detector re-baselined at
  // the alarm, and clear_after samples without a further drop clear the
  // alarm, re-baselining again.
  bool cleared = false;
  for (int i = 0; i < 300 && !cleared; ++i) {
    if (detector.Update(0.55) && !detector.alarmed()) cleared = true;
  }
  ASSERT_TRUE(cleared);
  EXPECT_EQ(detector.samples(), 0u);  // fully re-baselined

  // Recurrent drift: a second shift below the NEW baseline must alarm
  // again — the detector compares against 0.55 now, not 0.95.
  for (int i = 0; i < 64; ++i) {
    detector.Update(0.55);
    ASSERT_FALSE(detector.alarmed());
  }
  for (int i = 0; i < 20 && !detector.alarmed(); ++i) detector.Update(0.15);
  EXPECT_TRUE(detector.alarmed());
}

// --- QualityMonitor audit math ------------------------------------------

struct MonitorStack {
  ObjectOracle<Vector> oracle;
  std::vector<size_t> db_ids;
  FastMapModel model;
  L2Scorer scorer;
  EmbeddedDatabase db;
  std::unique_ptr<RetrievalEngine> mono;
  std::unique_ptr<RetrievalEngine> sharded;

  MonitorStack(size_t n, size_t num_queries, size_t dims, uint64_t seed)
      : oracle(test::MakePlaneOracle(n + num_queries, seed)),
        db_ids(test::Iota(n)),
        model([&] {
          FastMapOptions options;
          options.dims = dims;
          options.seed = seed + 1;
          return BuildFastMap(oracle, db_ids, options);
        }()),
        db(EmbedDatabase(model, oracle, db_ids)) {
    mono = std::make_unique<RetrievalEngine>(&model, &scorer, &db, db_ids);
    ShardedEngineOptions options;
    options.num_shards = 3;
    sharded = std::make_unique<RetrievalEngine>(&model, &scorer, db, db_ids,
                                                options);
  }

  DxToDatabaseFn Query(size_t q) {
    return [this, q](size_t id) { return oracle.Distance(q, id); };
  }
};

TEST(QualityMonitorTest, ShouldSampleHonorsCadence) {
  MetricRegistry registry;
  QualityMonitorOptions options;
  options.sample_every_n = 4;
  options.registry = &registry;
  QualityMonitor monitor(options);
  std::vector<bool> decisions;
  for (int i = 0; i < 12; ++i) decisions.push_back(monitor.ShouldSample());
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(decisions[i], i % 4 == 0) << "tick " << i;
  }
}

/// p = n degenerates filter-and-refine to exact brute force, so every
/// audit must find recall 1, zero displacement, zero score error, and —
/// the bit-identity acceptance — zero mismatches, over one shard or
/// three.
void ExpectPerfectAuditsAtPEqualsN(size_t shards, size_t n, size_t queries,
                                   uint64_t seed) {
  MonitorStack stack(n, queries, 4, seed);
  const RetrievalEngine& engine = shards == 1 ? *stack.mono : *stack.sharded;
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = RetrievalOptions(5, n);
  options.audit_monitor = &monitor;
  for (size_t q = n; q < n + queries; ++q) {
    auto r = engine.Retrieve({stack.Query(q), options});
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, queries);
  EXPECT_EQ(stats.completed, queries);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.mismatches, 0u);
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_FALSE(stats.drift_alarm);
  EXPECT_DOUBLE_EQ(stats.recall_at_k, 1.0);
  EXPECT_DOUBLE_EQ(stats.rank_displacement, 0.0);
  EXPECT_DOUBLE_EQ(stats.score_error, 0.0);
}

TEST(QualityMonitorTest, ExactServingAuditsPerfectlyAtPEqualsN) {
  ExpectPerfectAuditsAtPEqualsN(1, 60, 10, 11);
}

TEST(QualityMonitorTest, ShardedEngineAuditsPerfectlyAtPEqualsN) {
  ExpectPerfectAuditsAtPEqualsN(3, 90, 8, 13);
}

TEST(QualityMonitorTest, AttachingMonitorDoesNotChangeResults) {
  constexpr size_t kN = 80;
  MonitorStack stack(kN, 6, 4, 17);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions plain = RetrievalOptions(5, 20);
  RetrievalOptions audited = plain;
  audited.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 6; ++q) {
    auto a = stack.mono->Retrieve({stack.Query(q), plain});
    auto b = stack.mono->Retrieve({stack.Query(q), audited});
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().neighbors, b.value().neighbors);
  }
  monitor.Flush();
  EXPECT_EQ(monitor.stats().completed, 6u);
}

TEST(QualityMonitorTest, NarrowFilterShowsUpInQualityMetrics) {
  // A 1-d embedding of the plane with p = k leaves the filter plenty of
  // room to miss true neighbors: across enough queries the audits must
  // record imperfection (that imperfection is the signal the monitor
  // exists to measure).
  constexpr size_t kN = 200;
  MonitorStack stack(kN, 24, 1, 19);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.window = 64;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = RetrievalOptions(10, 10);
  options.audit_monitor = &monitor;
  for (size_t q = kN; q < kN + 24; ++q) {
    auto r = stack.mono->Retrieve({stack.Query(q), options});
    ASSERT_TRUE(r.ok());
  }
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 24u);
  EXPECT_GT(stats.mismatches, 0u);
  EXPECT_LT(stats.recall_at_k, 1.0);
  EXPECT_GT(stats.recall_at_k, 0.0);
  EXPECT_GT(stats.rank_displacement, 0.0);
}

TEST(QualityMonitorTest, FullQueueShedsInsteadOfBlocking) {
  MonitorStack stack(8, 1, 2, 23);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.queue_capacity = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  // A dx that parks the worker until released, so the queue state is
  // deterministic: task 1 occupies the worker, task 2 the only slot, and
  // tasks 3 and 4 must shed without blocking this thread.
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  auto make_task = [&](bool blocking) {
    AuditTask task;
    task.k = 1;
    task.served = {{0, 0.0}};
    task.snapshots.push_back(stack.db.snapshot());
    if (blocking) {
      task.dx = [&](size_t) {
        entered.fetch_add(1);
        while (!release.load()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return 0.0;
      };
    } else {
      task.dx = [](size_t) { return 0.0; };
    }
    return task;
  };
  monitor.SubmitAudit(make_task(true));
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  monitor.SubmitAudit(make_task(false));  // fills the single slot
  monitor.SubmitAudit(make_task(false));  // shed
  monitor.SubmitAudit(make_task(false));  // shed
  QualityMonitorStats mid = monitor.stats();
  EXPECT_EQ(mid.sampled, 4u);
  EXPECT_EQ(mid.shed, 2u);
  release.store(true);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.shed, 2u);
}

TEST(QualityMonitorTest, FullAuditQueueDoesNotStallServing) {
  // Every queued audit holds a snapshot of the database it audits.  A
  // parked worker plus a full default-sized queue must leave the
  // serving path free to take its own snapshot: requests never wait on
  // audits.
  MonitorStack stack(8, 1, 2, 31);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  AuditTask parked;
  parked.k = 1;
  parked.served = {{0, 0.0}};
  parked.snapshots.push_back(stack.db.snapshot());
  parked.dx = [&](size_t) {
    entered.fetch_add(1);
    while (!release.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return 0.0;
  };
  monitor.SubmitAudit(std::move(parked));
  while (entered.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  // The queue fill and the serving read run on a helper thread, so that
  // a stalled snapshot() fails the bounded wait below instead of hanging
  // the test; releasing the worker then lets the helper finish.
  std::atomic<bool> served{false};
  StatusOr<RetrievalResponse> response =
      Status::Internal("serving read never ran");
  std::thread helper([&] {
    for (size_t i = 0; i < qopts.queue_capacity; ++i) {
      AuditTask task;
      task.k = 1;
      task.served = {{0, 0.0}};
      task.snapshots.push_back(stack.db.snapshot());
      task.dx = [](size_t) { return 0.0; };
      monitor.SubmitAudit(std::move(task));
    }
    response = stack.mono->Retrieve({stack.Query(8), RetrievalOptions(1, 4)});
    served.store(true);
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!served.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_TRUE(served.load())
      << "a serving read waited on " << qopts.queue_capacity
      << " queued audits";
  release.store(true);
  helper.join();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->neighbors.size(), 1u);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, qopts.queue_capacity + 1);
  EXPECT_EQ(stats.shed, 0u);
}

TEST(QualityMonitorTest, SubmitAfterShutdownShedsCleanly) {
  MonitorStack stack(8, 1, 2, 29);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  monitor.Shutdown();
  AuditTask task;
  task.k = 1;
  task.served = {{0, 0.0}};
  task.snapshots.push_back(stack.db.snapshot());
  task.dx = [](size_t) { return 0.0; };
  monitor.SubmitAudit(std::move(task));
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 1u);
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(QualityMonitorTest, EmptySnapshotAuditIsANoOpCompletion) {
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  AuditTask task;  // no snapshots: nothing to audit against
  task.k = 3;
  task.dx = [](size_t) { return 0.0; };
  monitor.SubmitAudit(std::move(task));
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.mismatches, 0u);
}

TEST(QualityMonitorTest, AuditsRunTheirExactScanOnTheWorkerThread) {
  // The hot-path cost of auditing in exact DX calls: an audited request
  // makes the same DX calls on its own thread as an unaudited one (embed
  // plus p), and each audit's exact re-scan of all n rows runs on the
  // monitor's worker thread instead.
  constexpr size_t kN = 80;
  constexpr size_t kQueries = 8;
  MonitorStack stack(kN, kQueries, 4, 43);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  const RetrievalOptions plain(5, 20);
  RetrievalOptions audited = plain;
  audited.audit_monitor = &monitor;
  const std::thread::id request_thread = std::this_thread::get_id();
  std::atomic<size_t> on_request{0};
  std::atomic<size_t> on_worker{0};
  auto counting_dx = [&](size_t q) -> DxToDatabaseFn {
    return [&, q](size_t id) {
      (std::this_thread::get_id() == request_thread ? on_request : on_worker)
          .fetch_add(1);
      return stack.oracle.Distance(q, id);
    };
  };
  for (size_t q = kN; q < kN + kQueries; ++q) {
    auto a = stack.mono->Retrieve({counting_dx(q), plain});
    ASSERT_TRUE(a.ok());
    EXPECT_EQ(on_request.exchange(0), a->exact_distances);
    auto b = stack.mono->Retrieve({counting_dx(q), audited});
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(on_request.exchange(0), b->exact_distances);
    EXPECT_EQ(a->exact_distances, b->exact_distances);
  }
  monitor.Flush();
  EXPECT_EQ(monitor.stats().completed, kQueries);
  EXPECT_EQ(on_worker.load(), kQueries * kN);
}

// --- server integration -------------------------------------------------

TEST(QualityMonitorTest, ServerOffersMonitorToEveryRequest) {
  constexpr size_t kN = 80;
  MonitorStack stack(kN, 16, 4, 31);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 2;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  AsyncServerOptions options;
  options.quality_monitor = &monitor;
  AsyncRetrievalServer server(stack.mono.get(), options);
  std::vector<Future<StatusOr<RetrievalResponse>>> futures;
  for (size_t q = kN; q < kN + 16; ++q) {
    futures.push_back(server.Submit({stack.Query(q), RetrievalOptions(5, kN)}));
  }
  for (auto& f : futures) ASSERT_TRUE(f.Get().ok());
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  // 1-in-2 sampling over 16 requests: exactly 8 ticks fire (the tick
  // counter is the monitor's own, shared across workers).
  EXPECT_EQ(stats.sampled, 8u);
  EXPECT_EQ(stats.completed + stats.shed, stats.sampled);
  EXPECT_EQ(stats.mismatches, 0u);  // p = n
}

// --- end-to-end drift detection -----------------------------------------

TEST(QualityDriftTest, FrozenEmbeddingAlarmsOnAbruptDrift) {
  // The tentpole scenario end to end: embed at step 0, let the true
  // distances step-change at the onset, audit every query — the alarm
  // must raise within a bounded number of post-onset audits, and the
  // windowed recall must actually have degraded.
  constexpr size_t kN = 500;
  constexpr size_t kQueries = 32;
  constexpr size_t kOnset = 24;
  DriftingPointOracle oracle(kN + kQueries, 2,
                             test::AbruptDrift(kOnset, 0.35), 37);
  std::vector<size_t> db_ids = test::Iota(kN);
  FastMapOptions fopts;
  fopts.dims = 4;
  fopts.seed = 38;
  FastMapModel model = BuildFastMap(oracle, db_ids, fopts);
  L2Scorer scorer;
  EmbeddedDatabase db = EmbedDatabase(model, oracle, db_ids);
  RetrievalEngine engine(&model, &scorer, &db, db_ids);

  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.window = 8;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  RetrievalOptions options = RetrievalOptions(5, 25);
  options.audit_monitor = &monitor;

  double recall_before = 0.0;
  size_t alarm_step = 0;
  for (size_t step = 0; step < 200; ++step) {
    oracle.SetStep(step);
    size_t q = kN + step % kQueries;
    auto r = engine.Retrieve(
        {[&oracle, q](size_t id) { return oracle.Distance(q, id); },
         options});
    ASSERT_TRUE(r.ok());
    monitor.Flush();
    if (step + 1 == kOnset) recall_before = monitor.stats().recall_at_k;
    if (monitor.drift_alarmed()) {
      alarm_step = step;
      break;
    }
  }
  QualityMonitorStats stats = monitor.stats();
  ASSERT_TRUE(stats.drift_alarm) << "no alarm within 200 audited queries";
  EXPECT_EQ(stats.alarms, 1u);
  EXPECT_GE(alarm_step, kOnset);
  EXPECT_LE(alarm_step - kOnset, 64u);
  EXPECT_GE(recall_before - stats.recall_at_k, 0.02);
}

TEST(QualityDriftTest, NoisyStationaryServingRaisesNoAlarm) {
  // The control for the drift alarm: a stationary workload whose audited
  // recall is noisy (p = 2k on a 1-d embedding of the plane), served
  // through the async server with every response audited.  Thousands of
  // noisy audits must raise zero alarms, and none may be shed.
  constexpr size_t kN = 400;
  constexpr size_t kQueries = 256;
  constexpr size_t kRequests = 3000;
  MonitorStack stack(kN, kQueries, 1, 47);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.queue_capacity = kRequests;
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);
  AsyncServerOptions options;
  options.quality_monitor = &monitor;
  AsyncRetrievalServer server(stack.mono.get(), options);
  for (size_t i = 0; i < kRequests; ++i) {
    auto r = server.Retrieve(
        {stack.Query(kN + i % kQueries), RetrievalOptions(10, 20)});
    ASSERT_TRUE(r.ok()) << r.status();
  }
  server.Shutdown(AsyncRetrievalServer::DrainMode::kDrain);
  monitor.Flush();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, kRequests);
  EXPECT_EQ(stats.completed, kRequests);
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_GT(stats.mismatches, kRequests / 10) << "recall is not noisy";
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_FALSE(stats.drift_alarm);
}

// --- audits under concurrent mutation (TSan target) ---------------------

TEST(QualityMonitorConcurrencyTest, AuditsRaceMutationsSafely) {
  // Query threads sample audits (pinning snapshots) while a mutator
  // removes and re-inserts rows: the audits score the pinned views, so
  // every completed audit at p = n must still be exact, and TSan must
  // see no races between worker, queriers and mutator.
  constexpr size_t kN = 120;
  MonitorStack stack(kN, 16, 4, 41);
  MetricRegistry registry;
  QualityMonitorOptions qopts;
  qopts.sample_every_n = 1;
  qopts.queue_capacity = 8;  // small on purpose: shedding races too
  qopts.registry = &registry;
  QualityMonitor monitor(qopts);

  std::atomic<bool> stop{false};
  std::thread mutator([&] {
    size_t id = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (stack.mono->Remove(id).ok()) {
        auto dx = [&stack, id](size_t other) {
          return id == other ? 0.0 : stack.oracle.Distance(id, other);
        };
        ASSERT_TRUE(stack.mono->Insert(id, dx).ok());
      }
      id = (id + 7) % kN;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      RetrievalOptions options = RetrievalOptions(5, kN);
      options.audit_monitor = &monitor;
      for (size_t i = 0; i < 60; ++i) {
        size_t q = kN + (t * 60 + i) % 16;
        auto r = stack.mono->Retrieve({stack.Query(q), options});
        ASSERT_TRUE(r.ok());
      }
    });
  }
  for (auto& t : queriers) t.join();
  stop.store(true, std::memory_order_relaxed);
  mutator.join();
  monitor.Flush();
  monitor.Shutdown();
  QualityMonitorStats stats = monitor.stats();
  EXPECT_EQ(stats.sampled, 120u);
  EXPECT_EQ(stats.completed + stats.shed, stats.sampled);
  // Audits run against the snapshots the serving path pinned, so
  // mutation concurrency must not manufacture mismatches at p = n.
  EXPECT_EQ(stats.mismatches, 0u);
}

}  // namespace
}  // namespace obs
}  // namespace qse
