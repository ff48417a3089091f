// Event queue for the serving simulator's discrete-event loop.
//
// The simulator pops the earliest pending event millions of times per
// point, and a binary heap pays O(log n) comparator-driven pointer chasing
// per operation. CalendarEventQueue is a classic calendar/bucket queue:
// time is quantized into fixed-width buckets covering a rotating window;
// pushes append to the containing bucket in O(1), pops scan the earliest
// non-empty bucket for its minimum. Because buckets partition time into
// disjoint ascending ranges, the bucket scan's minimum IS the global
// minimum, and ties (equal time) always land in the same bucket — so the
// pop order is exactly the fully-specified (time, kind, instance) order of
// ServeEvent's comparator, independent of the bucket width. Width only
// affects performance; correctness is golden-checked against the reference
// heap (tests/event_queue_test.cc, bench_serve_scale).
//
// The queue exploits the simulator's monotonicity: every push is at or
// after the time of the last pop (events are always scheduled at now + a
// non-negative delay), so the window only ever rotates forward. Pushes
// beyond the window land in an overflow min-heap and are re-bucketed when
// the window advances past them.

#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace litegpu {

// Simultaneous events process in a fully specified order: domain outages
// first (they expand to member failures at one timestamp), then independent
// failures (a completion at the same instant loses the race and is killed),
// then degrade transitions (a dispatch at the same instant sees the new
// multiplier), then completions, then instances coming up
// (autoscaler-provisioned capacity, fault recoveries, spare returns), then
// autoscaler decision ticks — so a decision at time T sees every completion
// and recovery at T, and results never depend on the event container's
// internal layout. With faults disabled no fault kinds are ever scheduled,
// so the relative order of the pre-fault kinds (and every metric) is
// unchanged.
enum class ServeEventKind : uint8_t {
  kPrefillDomainFail,
  kDecodeDomainFail,
  kPrefillFail,
  kDecodeFail,
  kPrefillDegradeStart,
  kDecodeDegradeStart,
  kPrefillDegradeEnd,
  kDecodeDegradeEnd,
  kPrefillDone,
  kDecodeStepDone,
  kPrefillUp,
  kDecodeUp,
  kPrefillRecover,
  kDecodeRecover,
  kPrefillSpareReturn,
  kDecodeSpareReturn,
  kAutoscaleTick,
};

struct ServeEvent {
  double time_s = 0.0;
  ServeEventKind kind = ServeEventKind::kPrefillDone;
  int instance = 0;
  // Instance lifecycle epoch at scheduling time (fault runs only): a
  // failure bumps its instance's epoch, so completion and failure events
  // scheduled before it are discarded as stale on pop. Always 0 with
  // faults disabled; deliberately not part of the ordering.
  int epoch = 0;
  // Full ordering so simultaneous events pop in a specified order —
  // (time, kind, instance/sequence) — instead of any container's internal
  // layout.
  bool operator>(const ServeEvent& other) const {
    if (time_s != other.time_s) {
      return time_s > other.time_s;
    }
    if (kind != other.kind) {
      return kind > other.kind;
    }
    return instance > other.instance;
  }
  bool operator<(const ServeEvent& other) const { return other > *this; }
};

class CalendarEventQueue {
 public:
  // `bucket_width` is the time quantum; ~one expected event per bucket is
  // ideal but any positive width is correct. `buckets` is the window size
  // in buckets (the window spans buckets * width seconds).
  explicit CalendarEventQueue(double bucket_width = 1e-3, size_t buckets = 1024);

  // Re-arms an existing queue for a new run, keeping allocated bucket
  // capacity (the per-point scratch arena reuses one queue across points).
  // Requires the queue to be empty.
  void Reset(double bucket_width);

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  // Push/PeekTime/Pop are defined inline below: the simulator calls each
  // millions of times per point and the call overhead is measurable.
  void Push(const ServeEvent& e);
  // Time of the earliest event; undefined on an empty queue.
  double PeekTime();
  // Removes and returns the minimum by the full (time, kind, instance)
  // comparator; undefined on an empty queue.
  ServeEvent Pop();

 private:
  void PushOverflow(const ServeEvent& e);
  // Index of the earliest non-empty bucket at or after cursor_, advancing
  // cursor_ (rotating the window over the overflow heap when the in-window
  // buckets drain). Requires size_ > 0.
  void AdvanceCursor();
  // Position of the minimum event within bucket `b` (full comparator).
  size_t MinInBucket(size_t b) const;
  size_t BucketIndex(double t) const;

  double width_ = 1e-3;
  double window_start_ = 0.0;  // time at bucket 0 of the current window
  size_t cursor_ = 0;          // first possibly-non-empty bucket
  std::vector<std::vector<ServeEvent>> buckets_;
  std::vector<ServeEvent> overflow_;  // min-heap, events >= window end
  size_t in_window_ = 0;              // events currently bucketed
  size_t size_ = 0;
  // Cached location of the minimum, valid between a PeekTime and the next
  // Pop (a Push can only move it to the pushed event). Saves the bucket
  // re-scan on the ubiquitous peek-then-pop sequence.
  bool min_valid_ = false;
  size_t min_bucket_ = 0;
  size_t min_pos_ = 0;
};

inline size_t CalendarEventQueue::BucketIndex(double t) const {
  double rel = (t - window_start_) / width_;
  if (rel <= 0.0) {
    return 0;
  }
  // Compare in double before casting: a far-future event (failure times can
  // sit at the full horizon) would overflow the size_t cast.
  if (rel >= static_cast<double>(buckets_.size())) {
    return buckets_.size();  // == size() means "past the window"
  }
  return static_cast<size_t>(rel);
}

inline void CalendarEventQueue::Push(const ServeEvent& e) {
  // Bucket arithmetic needs a finite time. Scenario validation bounds the
  // user-set durations added to the clock (repair, spare activation,
  // degraded window, provisioning delay), so each event time stays finite.
  assert(std::isfinite(e.time_s));
  ++size_;
  size_t idx = BucketIndex(e.time_s);
  if (idx >= buckets_.size()) {
    PushOverflow(e);
    return;
  }
  // The simulator only pushes at or after the last popped time, but an
  // arrival between two events may schedule work into a bucket the cursor
  // already skimmed past (it was empty then) — walk the cursor back so the
  // next scan sees it.
  if (idx < cursor_) {
    cursor_ = idx;
  }
  buckets_[idx].push_back(e);
  ++in_window_;
  if (min_valid_ && e < buckets_[min_bucket_][min_pos_]) {
    min_bucket_ = idx;
    min_pos_ = buckets_[idx].size() - 1;
  }
}

inline double CalendarEventQueue::PeekTime() {
  if (!min_valid_) {
    AdvanceCursor();
    min_bucket_ = cursor_;
    min_pos_ = MinInBucket(cursor_);
    min_valid_ = true;
  }
  return buckets_[min_bucket_][min_pos_].time_s;
}

inline ServeEvent CalendarEventQueue::Pop() {
  if (!min_valid_) {
    PeekTime();
  }
  std::vector<ServeEvent>& bucket = buckets_[min_bucket_];
  ServeEvent e = bucket[min_pos_];
  // Swap-remove: the order of the survivors inside a bucket is irrelevant —
  // every lookup scans the bucket with the full comparator.
  bucket[min_pos_] = bucket.back();
  bucket.pop_back();
  --in_window_;
  --size_;
  min_valid_ = false;
  return e;
}

// Reference implementation with the exact container the simulator used
// before the calendar queue: a binary min-heap over the same comparator.
// Kept only as the ground truth for event_queue_test's randomized property
// test; no simulator or bench uses it.
class HeapEventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void Push(const ServeEvent& e);
  double PeekTime() const { return heap_.front().time_s; }
  ServeEvent Pop();

 private:
  std::vector<ServeEvent> heap_;  // min-heap via std::greater
};

}  // namespace litegpu
