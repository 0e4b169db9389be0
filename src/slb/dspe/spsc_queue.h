// Bounded lock-free single-producer / single-consumer ring queue.
//
// The threaded runtime's transport fabric: every producer task gets, per
// outgoing edge, one ring to each executor thread hosting a destination task
// (a host lane), so an executor sees MPSC fan-in as a poll over per-producer
// SPSC rings — no CAS loops, no shared tail contention, FIFO order preserved
// per sender (the property the partitioners' sender-local load estimates
// rely on; one destination's tuples are a subsequence of its lane).
//
// Classic cached-index design: producer and consumer each own one index and
// keep a cached copy of the other's, so the hot path touches a shared cache
// line only when its cached view goes stale. Batch push/pop amortize even
// those refreshes across `batch_size` tuples (the runtime's emit batching).

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace slb {

/// Destructive-interference granularity assumed by the runtime's hot
/// structures (ring indices, root-slot array, per-task counters). A fixed 64
/// rather than std::hardware_destructive_interference_size: the constant
/// feeds alignas() in headers, so it must not vary between TUs/compilers.
inline constexpr std::size_t kCacheLineBytes = 64;

template <typename T>
class SpscRing {
 public:
  /// Capacity is rounded up to a power of two (minimum 2).
  explicit SpscRing(size_t capacity) {
    size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    buffer_.resize(cap);
    mask_ = cap - 1;
  }

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  size_t capacity() const { return buffer_.size(); }

  /// Producer side. Returns false when the ring is full.
  bool TryPush(const T& item) { return TryPushBatch(&item, 1) == 1; }

  /// Pushes up to `count` items; returns how many were accepted (a prefix of
  /// `items`). One release store publishes the whole batch.
  size_t TryPushBatch(const T* items, size_t count) {
    const size_t tail = tail_.load(std::memory_order_relaxed);
    size_t free = cached_head_ + buffer_.size() - tail;
    if (free < count) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = cached_head_ + buffer_.size() - tail;
      if (free == 0) return 0;
    }
    const size_t n = count < free ? count : free;
    for (size_t i = 0; i < n; ++i) {
      buffer_[(tail + i) & mask_] = items[i];
    }
    tail_.store(tail + n, std::memory_order_release);
    return n;
  }

  /// Consumer side. Returns false when the ring is empty.
  bool TryPop(T* out) { return TryPopBatch(out, 1) == 1; }

  /// Pops up to `max` items into `out`; returns how many were taken. One
  /// release store frees the whole batch for the producer.
  size_t TryPopBatch(T* out, size_t max) {
    const size_t head = head_.load(std::memory_order_relaxed);
    size_t available = cached_tail_ - head;
    if (available == 0) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      available = cached_tail_ - head;
      if (available == 0) return 0;
    }
    const size_t n = max < available ? max : available;
    for (size_t i = 0; i < n; ++i) {
      out[i] = buffer_[(head + i) & mask_];
    }
    head_.store(head + n, std::memory_order_release);
    return n;
  }

  /// Approximate occupancy (exact only when both sides are quiescent).
  size_t SizeApprox() const {
    return tail_.load(std::memory_order_acquire) -
           head_.load(std::memory_order_acquire);
  }

  bool EmptyApprox() const { return SizeApprox() == 0; }

 private:
  std::vector<T> buffer_;
  size_t mask_ = 0;
  // Producer-owned line: tail plus its cached view of head.
  alignas(kCacheLineBytes) std::atomic<size_t> tail_{0};
  size_t cached_head_ = 0;
  // Consumer-owned line: head plus its cached view of tail.
  alignas(kCacheLineBytes) std::atomic<size_t> head_{0};
  size_t cached_tail_ = 0;
  // Trailing pad so a ring packed in an array never shares the consumer's
  // line with whatever follows it.
  [[maybe_unused]] char pad_[kCacheLineBytes - sizeof(size_t)];
};

}  // namespace slb
