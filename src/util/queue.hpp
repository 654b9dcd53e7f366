// Bounded multi-producer queue used for command streaming.
//
// In the divide-and-conquer engine, every participant of a frame submits
// command buffers of transformed spot geometry straight into a graphics
// pipe's queue, and the pipe's server thread consumes them. Command buffers
// are chunky (dozens of spots each), so a mutex + condition-variable queue
// is plenty: the lock is taken a few thousand times per frame, far from
// contention. Boundedness provides the back-pressure that models a
// saturated pipe — when the pipe cannot keep up, submitters block, which is
// exactly the "starvation vs. saturation" balance eq. 3.2 describes.
//
// Lock discipline is compiler-checked: items_ and closed_ are
// DCSN_GUARDED_BY(mutex_), so under the `analyze` preset (clang
// -Wthread-safety) any access outside a util::MutexLock is a build error.
#pragma once

#include <deque>
#include <optional>
#include <utility>

#include "util/thread_annotations.hpp"

namespace dcsn::util {

/// Bounded MPSC/MPMC FIFO with close() semantics.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity = 64) : capacity_(capacity) {}

  /// Blocks while full. Returns false if the queue was closed.
  bool push(T value) {
    MutexLock lock(mutex_);
    not_full_.wait(lock, [&]() DCSN_REQUIRES(mutex_) {
      return closed_ || items_.size() < capacity_;
    });
    if (closed_) return false;
    items_.push_back(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when full or closed.
  bool try_push(T value) {
    {
      MutexLock lock(mutex_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty. Returns nullopt once closed and drained.
  std::optional<T> pop() {
    MutexLock lock(mutex_);
    not_empty_.wait(lock, [&]() DCSN_REQUIRES(mutex_) {
      return closed_ || !items_.empty();
    });
    if (items_.empty()) return std::nullopt;  // closed and drained
    T value = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Wakes all waiters; subsequent pushes fail, pops drain then end.
  void close() {
    {
      MutexLock lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  Mutex mutex_;
  CondVar not_empty_;
  CondVar not_full_;
  std::deque<T> items_ DCSN_GUARDED_BY(mutex_);
  const std::size_t capacity_;
  bool closed_ DCSN_GUARDED_BY(mutex_) = false;
};

}  // namespace dcsn::util
