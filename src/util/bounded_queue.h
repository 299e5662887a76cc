#ifndef QSE_UTIL_BOUNDED_QUEUE_H_
#define QSE_UTIL_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace qse {

/// Why a non-blocking push was refused — decided under the queue lock,
/// so a caller can map "full" to load shedding and "closed" to shutdown
/// without racing a concurrent Close().
enum class QueuePushResult {
  kAccepted,
  kFull,
  kClosed,
};

/// Bounded blocking FIFO queue — the admission primitive of the async
/// serving layer.  Safe for any number of producers and consumers; the
/// server uses it MPMC (many submitters, many workers).
///
/// Close() makes the queue drainable-but-terminal: pushes fail, pops keep
/// returning queued items and then nullopt, and every blocked pop is
/// woken.  This is what makes graceful shutdown deterministic — nothing
/// queued is ever silently dropped.
///
/// Pushes never block: a full queue refuses (the server sheds that load).
/// Failed pushes do not consume the value: `v` is only moved from when
/// TryPush accepts it, so the caller can still complete the request's
/// promise with an overload/shutdown status.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking push; false when full or closed.
  bool TryPush(T&& v) {
    return TryPushWithReason(std::move(v)) == QueuePushResult::kAccepted;
  }

  /// Non-blocking push that reports why it was refused.
  QueuePushResult TryPushWithReason(T&& v) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_) return QueuePushResult::kClosed;
      if (items_.size() >= capacity_) return QueuePushResult::kFull;
      items_.push_back(std::move(v));
    }
    not_empty_.notify_one();
    return QueuePushResult::kAccepted;
  }

  /// Blocks until an item arrives; nullopt only once closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  /// Rejects future pushes, lets pops drain, wakes all blocked pops.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// Momentary number of queued items (the server's queue-depth stat).
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const size_t capacity_;
  bool closed_ = false;
};

}  // namespace qse

#endif  // QSE_UTIL_BOUNDED_QUEUE_H_
