// Finish-step wheel: a decode instance's active sequences, keyed by the
// instance step count at which each emits its last token.
//
// The serving core asks two things of an instance's sequences, once per
// decode run: the earliest finish step (to plan the run up to it) and,
// when the step count reaches it, every sequence finishing there. A
// min-heap answers both in O(log batch) per sequence. The wheel is a
// hashed timing wheel (Varghese & Lauck, SOSP '87) over step counts:
// a sequence finishing fewer than kSlots steps ahead of the step count
// joins the chain of its slot, finish_step & (kSlots - 1), in O(1); a
// later one goes to a small far heap. An occupancy bitmap with a one-word
// summary of its non-empty words finds the next non-empty slot in O(1).
//
// The step count never passes a pending finish (a run is planned to end
// at or before the earliest one), so every ring entry finishes within
// kSlots - 1 steps after the step count, and a slot only ever holds
// sequences finishing at one step. Popping that step takes the slot's
// whole chain plus any far-heap entries finishing there, in no specified
// order: the core's completions at one step commute.

#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace litegpu {

// A decode sequence on its instance's wheel: finish_step is the instance
// step count at which it emits its last token; class rides along for
// per-class accounting.
struct Completion {
  uint64_t finish_step;
  int request;
  int cls;
};

class CompletionWheel {
 public:
  // Ring span in steps. 2048 leaves 0.001% of steady_poisson's sequences
  // and 0.08% of chaos_day's in the far heap; 1024 left 0.3% and 8%, since
  // chaos_day's batch-summarize class (median 900 output tokens, sigma
  // 0.3) often runs past 1024.
  static constexpr uint64_t kSlots = 2048;

  CompletionWheel() : head_(kSlots) {}

  // Empties the wheel, keeping its memory.
  void Clear() {
    std::fill(std::begin(occupied_), std::end(occupied_), 0);
    summary_ = 0;
    nodes_.clear();
    free_ = -1;
    far_.clear();
  }

  // Adds `c`, which finishes after the current step count `step`.
  void Push(uint64_t step, const Completion& c) {
    assert(c.finish_step > step);
    if (c.finish_step - step >= kSlots) {
      far_.push_back(c);
      std::push_heap(far_.begin(), far_.end(), LaterFinish{});
      return;
    }
    int32_t n = free_;
    if (n >= 0) {
      free_ = nodes_[static_cast<size_t>(n)].next;
    } else {
      n = static_cast<int32_t>(nodes_.size());
      nodes_.emplace_back();
    }
    const size_t slot = static_cast<size_t>(c.finish_step & kMask);
    uint64_t& word = occupied_[slot >> 6];
    const uint64_t bit = 1ull << (slot & 63);
    nodes_[static_cast<size_t>(n)] = {c, (word & bit) ? head_[slot] : -1};
    head_[slot] = n;
    word |= bit;
    summary_ |= 1ull << (slot >> 6);
  }

  // The earliest finish step. The wheel must be non-empty and hold nothing
  // finishing at or before the current step count `step`.
  uint64_t NextFinish(uint64_t step) const {
    uint64_t next = std::numeric_limits<uint64_t>::max();
    if (summary_ != 0) {
      // Ring entries finish in [step + 1, step + kSlots - 1]: the first
      // occupied slot from step + 1 on, cyclically, is the earliest.
      const size_t from = static_cast<size_t>((step + 1) & kMask);
      size_t w = from >> 6;
      uint64_t bits = occupied_[w] & (~0ull << (from & 63));
      if (bits == 0) {
        // Later words, else wrap round to the lowest occupied word (which
        // may be `w` itself, below `from`).
        uint64_t later = summary_ & ~((2ull << w) - 1);
        w = static_cast<size_t>(__builtin_ctzll(later != 0 ? later : summary_));
        bits = occupied_[w];
      }
      size_t slot = (w << 6) | static_cast<size_t>(__builtin_ctzll(bits));
      next = step + 1 + ((slot - from) & kMask);
    }
    if (!far_.empty()) {
      next = std::min(next, far_.front().finish_step);
    }
    assert(next != std::numeric_limits<uint64_t>::max());
    return next;
  }

  // Removes every entry finishing at `step`, the current step count,
  // calling f(entry) for each in no specified order. Nothing may finish
  // before `step`.
  template <typename F>
  void PopStep(uint64_t step, F&& f) {
    const size_t slot = static_cast<size_t>(step & kMask);
    uint64_t& word = occupied_[slot >> 6];
    const uint64_t bit = 1ull << (slot & 63);
    if (word & bit) {
      int32_t n = head_[slot];
      for (;;) {
        const Node& node = nodes_[static_cast<size_t>(n)];
        assert(node.c.finish_step == step);
        f(node.c);
        if (node.next < 0) {
          break;
        }
        n = node.next;
      }
      // The whole chain joins the free list at once.
      nodes_[static_cast<size_t>(n)].next = free_;
      free_ = head_[slot];
      word &= ~bit;
      if (word == 0) {
        summary_ &= ~(1ull << (slot >> 6));
      }
    }
    while (!far_.empty() && far_.front().finish_step == step) {
      f(far_.front());
      std::pop_heap(far_.begin(), far_.end(), LaterFinish{});
      far_.pop_back();
    }
  }

  // Empties the wheel, returning its entries ascending by request.
  std::vector<Completion> Drain() {
    std::vector<Completion> out;
    for (size_t w = 0; w < kWords; ++w) {
      for (uint64_t bits = occupied_[w]; bits != 0; bits &= bits - 1) {
        size_t slot = (w << 6) | static_cast<size_t>(__builtin_ctzll(bits));
        for (int32_t n = head_[slot]; n >= 0; n = nodes_[static_cast<size_t>(n)].next) {
          out.push_back(nodes_[static_cast<size_t>(n)].c);
        }
      }
    }
    out.insert(out.end(), far_.begin(), far_.end());
    std::sort(out.begin(), out.end(),
              [](const Completion& a, const Completion& b) { return a.request < b.request; });
    Clear();
    return out;
  }

 private:
  static constexpr uint64_t kMask = kSlots - 1;
  static constexpr size_t kWords = kSlots / 64;
  static_assert((kSlots & kMask) == 0 && kWords >= 1 && kWords <= 64,
                "kSlots must be a power of two whose bitmap words fit one summary word");

  struct Node {
    Completion c;
    int32_t next;  // next node of the slot's chain, or -1
  };
  // std::push_heap comparator: the later finish is "less", so the earliest
  // sits at the front.
  struct LaterFinish {
    bool operator()(const Completion& a, const Completion& b) const {
      return a.finish_step > b.finish_step;
    }
  };

  // head_[slot] is the slot's first node; read only while its bit is set.
  std::vector<int32_t> head_;
  uint64_t occupied_[kWords] = {};
  uint64_t summary_ = 0;  // bit w set iff occupied_[w] != 0
  std::vector<Node> nodes_;
  int32_t free_ = -1;  // free-list head in nodes_
  std::vector<Completion> far_;
};

}  // namespace litegpu
