#include "src/util/bounded_queue.h"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <vector>

namespace qse {
namespace {

using namespace std::chrono_literals;

TEST(BoundedQueueTest, FifoOrderWithinCapacity) {
  BoundedQueue<int> q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.TryPush(1));
  EXPECT_TRUE(q.TryPush(2));
  EXPECT_TRUE(q.TryPush(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_EQ(q.Pop(), 3);
  EXPECT_EQ(q.size(), 0u);
}

TEST(BoundedQueueTest, TryPushFailsWhenFullWithoutConsumingValue) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  EXPECT_TRUE(q.TryPush(std::make_unique<int>(1)));
  auto v = std::make_unique<int>(2);
  EXPECT_FALSE(q.TryPush(std::move(v)));
  // The rejected value is still ours: the server relies on this to
  // complete the request's promise with kResourceExhausted.
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 2);
}

TEST(BoundedQueueTest, TryPushWithReasonDistinguishesFullFromClosed) {
  BoundedQueue<int> q(1);
  EXPECT_EQ(q.TryPushWithReason(1), QueuePushResult::kAccepted);
  EXPECT_EQ(q.TryPushWithReason(2), QueuePushResult::kFull);
  q.Close();
  // Closed wins over full: the reason is decided under the queue lock.
  EXPECT_EQ(q.TryPushWithReason(3), QueuePushResult::kClosed);
}

TEST(BoundedQueueTest, ZeroCapacityIsClampedToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.TryPush(7));
  EXPECT_FALSE(q.TryPush(8));
}

TEST(BoundedQueueTest, PopBlocksUntilPush) {
  BoundedQueue<int> q(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(10ms);
    EXPECT_TRUE(q.TryPush(42));
  });
  EXPECT_EQ(q.Pop(), 42);  // Blocks until the producer delivers.
  producer.join();
}

TEST(BoundedQueueTest, CloseDrainsThenTerminates) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.TryPush(1));
  ASSERT_TRUE(q.TryPush(2));
  q.Close();
  EXPECT_TRUE(q.closed());
  EXPECT_FALSE(q.TryPush(3));
  // Queued items drain, then pops report termination.
  EXPECT_EQ(q.Pop(), 1);
  EXPECT_EQ(q.Pop(), 2);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(BoundedQueueTest, CloseWakesBlockedPop) {
  BoundedQueue<int> q(1);
  std::thread blocked_pop([&] {
    EXPECT_FALSE(q.Pop().has_value());  // Woken by Close, reports drained.
  });
  std::this_thread::sleep_for(10ms);
  q.Close();
  blocked_pop.join();
}

TEST(BoundedQueueTest, ManyProducersManyConsumersDeliverEachItemOnce) {
  const size_t kProducers = 4, kConsumers = 3, kPerProducer = 500;
  BoundedQueue<size_t> q(16);
  std::mutex mu;
  std::set<size_t> seen;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        std::optional<size_t> v = q.Pop();
        if (!v.has_value()) return;
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_TRUE(seen.insert(*v).second) << "duplicate " << *v;
      }
    });
  }
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      // Pushes never block: a producer that finds the queue full yields
      // and retries until a consumer makes room.
      for (size_t i = 0; i < kPerProducer; ++i) {
        while (!q.TryPush(p * kPerProducer + i)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  q.Close();
  for (auto& t : threads) t.join();
  EXPECT_EQ(seen.size(), kProducers * kPerProducer);
}

}  // namespace
}  // namespace qse
