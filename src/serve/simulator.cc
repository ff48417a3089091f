// The million-request serving core. Three structural changes over the
// reference implementation (simulator_reference.cc, kept for identity and
// speedup gates), none of which may change any metric:
//
//  * Calendar event queue (src/serve/event_queue.h) instead of a binary
//    heap. Pop order is the same fully-specified (time, kind, instance)
//    order by construction — buckets partition time, ties share a bucket
//    and are resolved by the full comparator.
//
//  * Streamed requests and structure-of-arrays hot state. Requests are
//    pulled from a RequestStream when they fall due and held in a ring
//    over the live span [oldest unfinished id, next id), so a generated
//    stream is never materialized. Per-instance state is split into a hot
//    status byte per instance (the scheduling scans test one byte) plus
//    parallel cold arrays, and all per-point scratch lives in a
//    thread-local arena reused across sweep points, so points stop
//    churning the allocator.
//
//  * Decode macro-steps: one event per batch change, not one per step. A
//    decode instance's batch cannot change between its step boundaries
//    unless a sequence completes, it admits from the decode queue, a
//    degrade transition changes its step time, or it fails. Every run,
//    faulty or not, keeps an instance's sequences on one finish-step
//    wheel (src/serve/completion_wheel.h): O(1) to add a sequence, to find
//    the earliest finish step, and to take the sequences finishing at a
//    step. So a step starting at t plans a run of R steps up to its first
//    completion and schedules one event at the run's end. Every boundary
//    must be the per-step loop's `+= step` result bit for bit, so the end is
//    RepeatedSum(t + step, step, R - 1) (src/util/repeated_sum.h): the
//    exact result of those additions in O(binades crossed) work. At the
//    run's end the R steps land in bulk: one weighted TBT add of
//    batch * R (one weighted add of n samples equals n unit adds in bins,
//    count, min and max, so grouping cannot change the histogram),
//    tokens += batch * R, step count += R (a sequence's remaining tokens
//    are its finish step minus that count, so no per-sequence counter
//    moves). Busy time and batch-time product keep the per-step loop's
//    additions, charged lazily: steps starting at or before an autoscaler
//    tick, and before a cut or failure. A charge
//    walks its steps in one fused pass, after first jumping to a few steps
//    short of its limit with RepeatedSum when the span is long. Runs end
//    early at boundaries that must be real: an instance that could admit
//    plans R = 1 when the decode queue is non-empty or an in-flight
//    prefill pass ends within its first step; when a prefill pass refills
//    the empty decode queue, one designated run (the cuttable one whose
//    next boundary at or after now comes first) is cut to that boundary;
//    degrade transitions and failures first emit every boundary before
//    now, then cut or kill the run. A killed run's sequences requeue in
//    ascending request index, oldest first. Cut and killed runs' events go
//    stale through the per-instance step sequence.

#include "src/serve/simulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <optional>
#include <vector>

#include "src/serve/completion_wheel.h"
#include "src/serve/event_queue.h"
#include "src/util/repeated_sum.h"

namespace litegpu {

namespace {

// Histogram range for streamed TTFT, [0, 60 s): samples at or above land in
// the overflow bucket (count/mean/max stay exact; quantiles there report
// the max). One range for every run, so shard histograms always share bins
// and merge exactly.
constexpr double kTtftHistHiS = 60.0;

// Instance status bits, one byte per instance — the only state the
// scheduling scans read. An instance takes new work iff its byte is 0
// (prefill) / has none of kStepping|kDown|kInactive set (decode).
constexpr uint8_t kBusy = 1;      // prefill pass in flight / decode stepping
constexpr uint8_t kDraining = 2;  // autoscaler drain: finish, then retire
constexpr uint8_t kDown = 4;      // failed, awaiting spare/repair
constexpr uint8_t kInactive = 8;  // retired (indices stay stable)

// FIFO of request indices backed by a flat vector with a head cursor:
// push/pop are array writes, and the buffer compacts itself so memory stays
// O(live entries) on million-request horizons.
class IndexQueue {
 public:
  void Clear() {
    buf_.clear();
    head_ = 0;
  }
  bool empty() const { return head_ == buf_.size(); }
  size_t size() const { return buf_.size() - head_; }
  int front() const { return buf_[head_]; }
  void push_back(int v) { buf_.push_back(v); }
  void pop_front() {
    ++head_;
    if (head_ == buf_.size()) {
      buf_.clear();
      head_ = 0;
    } else if (head_ >= 4096 && head_ * 2 >= buf_.size()) {
      buf_.erase(buf_.begin(), buf_.begin() + static_cast<ptrdiff_t>(head_));
      head_ = 0;
    }
  }

 private:
  std::vector<int> buf_;
  size_t head_ = 0;
};

// End times of dispatched prefill passes, bucketed by fixed-width time
// windows in a ring: each bucket is tagged with the absolute window it
// holds and keeps the earliest and latest end added to it. Add is O(1);
// AnyEndBy first tries one remembered pass end still ahead of now, then
// visits only the windows between now and its limit. Ended passes are
// never removed — a window's latest end tells whether any of its passes
// is still ahead — so answers err only towards true (a killed pass, or a
// window straddling both now and the limit), and an end too far ahead for
// the ring evicts the window it lands on. Callers use the answer only as a
// scheduling hint.
class PassEnds {
 public:
  // `width` is the window width; `span` the longest a pass can take. A
  // zero width (a degenerate zero-time table) folds everything into one
  // window.
  void Reset(double width, double span) {
    inv_width_ = width > 0.0 ? 1.0 / width : 0.0;
    size_t want = static_cast<size_t>(std::min(span * inv_width_, 65536.0)) + 2;
    size_t n = 1;
    while (n < want) {
      n <<= 1;
    }
    mask_ = static_cast<int64_t>(n) - 1;
    windows_.assign(n, Window{});
    ahead_ = std::numeric_limits<double>::infinity();
  }
  void Add(double end) {
    ahead_ = std::min(ahead_, end);
    int64_t k = Index(end);
    Window& w = windows_[static_cast<size_t>(k & mask_)];
    if (w.tag != k) {
      w = {k, end, end};
    } else {
      w.min_end = std::min(w.min_end, end);
      w.max_end = std::max(w.max_end, end);
    }
  }
  // Whether a pass that has not ended by `now` ends at or before `limit`.
  bool AnyEndBy(double now, double limit) {
    if (ahead_ > now && ahead_ <= limit) {
      return true;
    }
    int64_t first = Index(now);
    int64_t last = std::min(Index(limit), first + mask_);
    for (int64_t k = first; k <= last; ++k) {
      const Window& w = windows_[static_cast<size_t>(k & mask_)];
      if (w.tag == k && w.max_end > now) {
        // Remember an end still ahead for the next query.
        double ahead = w.min_end > now ? w.min_end : w.max_end;
        if (ahead_ <= now || ahead < ahead_) {
          ahead_ = ahead;
        }
        if (w.min_end <= limit) {
          return true;
        }
      }
    }
    return false;
  }

 private:
  struct Window {
    int64_t tag = -1;
    double min_end = 0.0;
    double max_end = 0.0;
  };
  int64_t Index(double t) const { return static_cast<int64_t>(t * inv_width_); }

  double inv_width_ = 1.0;
  int64_t mask_ = 0;
  std::vector<Window> windows_;
  double ahead_ = 0.0;  // a pass end, ahead of the last query while > now
};

// Per-request state the engine keeps while a request is live: what the
// stream yielded, plus the retry count retry_with_budget spends.
struct LiveRequest {
  double arrival_s;
  int prompt_tokens;
  int output_tokens;
  int class_id;
  int retries;
};

// LiveRequest slots over the live span [oldest unfinished id, next id) in
// a power-of-two ring indexed by id & mask. Ids are arrival positions, so
// the span's start advances as its oldest request finishes, and memory is
// O(live span) rather than O(requests). The span is as wide as the
// arrivals during the longest-lived request, so the per-request flags sit
// in a separate byte ring: a completion marks one byte, not a cold slot.
// Both rings double when the span fills them.
class LiveRequests {
 public:
  void Clear() {
    oldest_ = 0;
    next_ = 0;
    peak_ = 0;
  }
  // Takes the stream's next request and returns its id.
  int Push(const Request& r) {
    if (next_ - oldest_ == slots_.size()) {
      Grow();
    }
    slots_[next_ & mask_] = {r.arrival_s, r.prompt_tokens, r.output_tokens, r.class_id, 0};
    flags_[next_ & mask_] = 0;
    ++next_;
    peak_ = std::max(peak_, next_ - oldest_);
    return static_cast<int>(next_ - 1);
  }
  LiveRequest& operator[](int id) { return slots_[static_cast<uint64_t>(id) & mask_]; }
  // Whether request `id` still has to record its TTFT (fault runs re-run
  // prefill for retried requests, whose first token was already
  // delivered); marks it recorded.
  bool FirstPrefill(int id) {
    uint8_t& f = flags_[static_cast<uint64_t>(id) & mask_];
    bool first = !(f & kTtftRecorded);
    f |= kTtftRecorded;
    return first;
  }
  // Request `id` holds no more engine state (completed, dropped, shed, or
  // never admitted); the span's start moves past every finished request.
  void Finish(int id) {
    flags_[static_cast<uint64_t>(id) & mask_] |= kFinished;
    while (oldest_ < next_ && (flags_[oldest_ & mask_] & kFinished)) {
      ++oldest_;
    }
  }
  // The widest live span of the run.
  uint64_t peak() const { return peak_; }

 private:
  static constexpr uint8_t kFinished = 1;
  static constexpr uint8_t kTtftRecorded = 2;

  void Grow() {
    size_t n = std::max<size_t>(1024, slots_.size() * 2);
    std::vector<LiveRequest> slots(n);
    std::vector<uint8_t> flags(n);
    for (uint64_t id = oldest_; id < next_; ++id) {
      slots[id & (n - 1)] = slots_[id & mask_];
      flags[id & (n - 1)] = flags_[id & mask_];
    }
    slots_.swap(slots);
    flags_.swap(flags);
    mask_ = n - 1;
  }

  std::vector<LiveRequest> slots_;
  std::vector<uint8_t> flags_;
  uint64_t mask_ = 0;
  uint64_t oldest_ = 0;
  uint64_t next_ = 0;
  uint64_t peak_ = 0;
};

// Pool indices, the values of ScalePool.
constexpr int kPrefillPool = static_cast<int>(ScalePool::kPrefill);
constexpr int kDecodePool = static_cast<int>(ScalePool::kDecode);

// Paired event kinds sit side by side, prefill first, so a kind's pool is
// its low bit and the pair's prefill kind is the kind with that bit clear.
constexpr int PoolOf(ServeEventKind kind) { return static_cast<int>(kind) & 1; }
constexpr ServeEventKind PairOf(ServeEventKind kind) {
  return static_cast<ServeEventKind>(static_cast<int>(kind) & ~1);
}
// The kind of pair `prefill_kind` for pool p.
constexpr ServeEventKind KindFor(ServeEventKind prefill_kind, int p) {
  return static_cast<ServeEventKind>(static_cast<int>(prefill_kind) + p);
}
constexpr bool Paired(ServeEventKind prefill_kind, ServeEventKind decode_kind) {
  return PoolOf(prefill_kind) == kPrefillPool && PoolOf(decode_kind) == kDecodePool &&
         PairOf(decode_kind) == prefill_kind;
}
static_assert(Paired(ServeEventKind::kPrefillDomainFail, ServeEventKind::kDecodeDomainFail) &&
                  Paired(ServeEventKind::kPrefillFail, ServeEventKind::kDecodeFail) &&
                  Paired(ServeEventKind::kPrefillDegradeStart,
                         ServeEventKind::kDecodeDegradeStart) &&
                  Paired(ServeEventKind::kPrefillDegradeEnd, ServeEventKind::kDecodeDegradeEnd) &&
                  Paired(ServeEventKind::kPrefillDone, ServeEventKind::kDecodeStepDone) &&
                  Paired(ServeEventKind::kPrefillUp, ServeEventKind::kDecodeUp) &&
                  Paired(ServeEventKind::kPrefillRecover, ServeEventKind::kDecodeRecover) &&
                  Paired(ServeEventKind::kPrefillSpareReturn,
                         ServeEventKind::kDecodeSpareReturn),
              "paired event kinds must be adjacent, prefill first");

// One pool's instance lifecycle, the same for prefill and decode: the
// per-instance columns (SoA: status byte, hot, plus parallel cold arrays),
// the ready bitmask, and the per-pool run values. Columns only one pool
// has live in SimScratch.
struct PoolState {
  explicit PoolState(uint8_t not_ready_mask) : not_ready(not_ready_mask) {}

  std::vector<uint8_t> state;
  std::vector<double> busy_time, up_time, down_time;
  std::vector<int> epoch;
  std::vector<uint8_t> via_spare;
  std::vector<const char*> drain_reason;
  // Degraded state: current step-time multiplier (1.0 = healthy) and the
  // time the open throttled window started (-1 = none).
  std::vector<double> degrade_mult, degrade_since;
  // Ready bitmask: bit i set iff instance i's status has no not_ready bit.
  // The dispatch loops scan set bits instead of walking every instance,
  // turning the per-event cost from O(pool size) into O(instances actually
  // dispatched) — at a million arrivals against a hundred-instance prefill
  // pool that scan is the simulator's single largest cost.
  std::vector<uint64_t> ready;

  // Run values: provisioned instances (incl. draining), scale-ups in
  // flight and their reasons (FIFO-matched to up events), free spares,
  // failure domains scheduled so far, and the busy sum at the last tick.
  int provisioned = 0;
  int pending_ups = 0;
  std::deque<const char*> up_reasons;
  int spares_free = 0;
  int domains_scheduled = 0;
  double prev_busy = 0.0;
  // Resolved per-pool constants, and the status bits that keep an
  // instance from taking new work: any bit for prefill, while a draining
  // decode instance still steps.
  double failure_rate = 0.0;
  double degrade_rate = 0.0;
  int instances_per_domain = 0;
  const uint8_t not_ready;

  size_t size() const { return state.size(); }

  void Add(double up) {
    size_t i = state.size();
    if (ready.size() <= (i >> 6)) {
      ready.push_back(0);
    }
    ready[i >> 6] |= 1ull << (i & 63);
    state.push_back(0);
    busy_time.push_back(0.0);
    up_time.push_back(up);
    down_time.push_back(-1.0);
    epoch.push_back(0);
    via_spare.push_back(0);
    drain_reason.push_back("");
    degrade_mult.push_back(1.0);
    degrade_since.push_back(-1.0);
  }

  void Clear() {
    state.clear();
    busy_time.clear();
    up_time.clear();
    down_time.clear();
    epoch.clear();
    via_spare.clear();
    drain_reason.clear();
    degrade_mult.clear();
    degrade_since.clear();
    ready.clear();
    provisioned = 0;
    pending_ups = 0;
    up_reasons.clear();
    spares_free = 0;
    domains_scheduled = 0;
    prev_busy = 0.0;
  }

  // Refreshes instance i's ready bit from its status byte. Called after
  // every status mutation; the dispatch loops trust the bits completely.
  void SyncReady(int i) {
    uint64_t bit = 1ull << (static_cast<unsigned>(i) & 63);
    size_t w = static_cast<size_t>(i) >> 6;
    if (!(state[static_cast<size_t>(i)] & not_ready)) {
      ready[w] |= bit;
    } else {
      ready[w] &= ~bit;
    }
  }
};

// Per-point scratch, reused across runs on the same thread so sweep points
// and shards stop churning the allocator: vectors are cleared, not freed.
struct SimScratch {
  CalendarEventQueue events;
  IndexQueue prefill_queue;
  IndexQueue decode_queue;

  // Indexed by pool.
  PoolState pools[2] = {PoolState(0xFF), PoolState(kBusy | kDown | kInactive)};

  // Prefill-only columns: the pass in flight and its request indices.
  std::vector<double> p_pass_started, p_pass_duration;
  std::vector<std::vector<int>> p_batch;

  // Decode-only columns.
  std::vector<double> d_batch_time_product;
  std::vector<double> d_step_started, d_step_duration;
  // Current decode run (macro-step): planned steps, steps charged to busy
  // time so far, steps emitted so far, and the sequence number its end
  // event carries (bumped when the run is cut or killed). Charged and
  // emitted counts are kept for multi-step runs only; a single-step run
  // is charged at its start and emitted at its end.
  std::vector<int> d_macro_steps, d_macro_charged, d_macro_done;
  std::vector<int> d_step_seq;
  // Active sequences: the instance's steps so far, its batch size (the
  // wheel's entry count, kept as a flat count because the hot path reads
  // it every step), its finish-step wheel, and per-class counts of wheel
  // entries.
  std::vector<uint64_t> d_step_count;
  std::vector<int> d_active_count;
  std::vector<CompletionWheel> d_wheel;
  std::vector<int> class_active;  // [instance * num_classes + class]

  LiveRequests live;

  // Bit i set iff decode instance i runs a multi-step macro-step it could
  // admit at (not draining, batch below max): the candidates a decode
  // queue push may have to cut.
  std::vector<uint64_t> d_cuttable;
  PassEnds prefill_ends;

  // Provisions one instance of pool p, up since `up_time`.
  void AddInstance(int p, double up_time, int num_classes) {
    PoolState& pool = pools[p];
    pool.Add(up_time);
    size_t n = pool.size();
    if (p == kPrefillPool) {
      p_pass_started.push_back(0.0);
      p_pass_duration.push_back(0.0);
      if (p_batch.size() < n) {
        p_batch.emplace_back();
      }
      return;
    }
    d_cuttable.resize(pool.ready.size(), 0);
    d_batch_time_product.push_back(0.0);
    d_step_started.push_back(0.0);
    d_step_duration.push_back(0.0);
    d_macro_steps.push_back(0);
    d_macro_charged.push_back(1);
    d_macro_done.push_back(0);
    d_step_seq.push_back(0);
    d_step_count.push_back(0);
    d_active_count.push_back(0);
    if (d_wheel.size() < n) {
      d_wheel.emplace_back();
    }
    if (num_classes > 0) {
      class_active.resize(n * static_cast<size_t>(num_classes), 0);
    }
  }

  void Reset(int n_prefill, int n_decode, int num_classes, double bucket_width) {
    events.Reset(bucket_width);
    prefill_queue.Clear();
    decode_queue.Clear();
    for (PoolState& pool : pools) {
      pool.Clear();
    }
    p_pass_started.clear();
    p_pass_duration.clear();
    // Nested per-instance vectors keep their slots (and inner capacity);
    // only the entries a previous larger run left behind are dropped.
    p_batch.resize(static_cast<size_t>(n_prefill));
    for (auto& b : p_batch) {
      b.clear();
    }
    d_batch_time_product.clear();
    d_step_started.clear();
    d_step_duration.clear();
    d_macro_steps.clear();
    d_macro_charged.clear();
    d_macro_done.clear();
    d_step_seq.clear();
    d_step_count.clear();
    d_active_count.clear();
    d_wheel.resize(static_cast<size_t>(n_decode));
    for (CompletionWheel& w : d_wheel) {
      w.Clear();
    }
    class_active.clear();
    d_cuttable.clear();
    live.Clear();
    for (int i = 0; i < n_prefill; ++i) {
      AddInstance(kPrefillPool, 0.0, num_classes);
    }
    for (int i = 0; i < n_decode; ++i) {
      AddInstance(kDecodePool, 0.0, num_classes);
    }
  }
};

SimScratch& TlsScratch() {
  static thread_local SimScratch scratch;
  return scratch;
}

}  // namespace

ServeMetrics RunServeSimulation(RequestStream& stream, const ServeClusterConfig& config,
                                const StepTimeTable& table) {
  ServeMetrics metrics;
  if (table.empty() || config.prefill_instances <= 0 || config.decode_instances <= 0) {
    return metrics;
  }

  const bool faults_enabled = config.faults.enabled;
  const bool stream_ttft = config.stream_ttft;
  // The three robustness axes (all dormant by default): correlated failure
  // domains and degraded states ride on the fault engine; shedding guards
  // the admission door and works with or without faults.
  const FaultDomainConfig& domains = config.faults.domains;
  const bool domains_enabled = faults_enabled && domains.enabled();
  const DegradedStateConfig& degraded = config.faults.degraded;
  const bool degrade_enabled = faults_enabled && degraded.enabled();
  const SheddingPolicy& shedding = config.shedding;
  const bool shed_enabled = shedding.enabled();
  // Full-batch prefill pass time for the TTFT-deadline estimate.
  const double shed_pass_s = table.PrefillTime(table.max_prefill_batch());

  SimScratch& S = TlsScratch();
  // Calendar-queue bucket width: one full-batch decode step over the pool,
  // the event spacing if every instance ended a run each step. Macro-steps
  // make decode events sparser than that, so buckets hold fewer events
  // than the width suggests. A pure performance hint — pop order never
  // depends on it.
  S.Reset(config.prefill_instances, config.decode_instances, config.num_classes,
          table.DecodeStepTime(table.max_decode_batch()) /
              static_cast<double>(std::max(1, config.decode_instances)));
  // Pass-end windows a quarter of a full-batch decode step wide, spanning
  // the longest (degraded) prefill pass.
  S.prefill_ends.Reset(table.DecodeStepTime(table.max_decode_batch()) / 4.0,
                       table.PrefillTime(table.max_prefill_batch()) *
                           std::max(1.0, degrade_enabled ? degraded.multiplier : 1.0));
  CalendarEventQueue& events = S.events;
  IndexQueue& prefill_queue = S.prefill_queue;
  IndexQueue& decode_queue = S.decode_queue;
  PoolState& prefill = S.pools[kPrefillPool];
  PoolState& decode = S.pools[kDecodePool];
  const ServeFaultConfig& faults = config.faults;
  prefill.provisioned = config.prefill_instances;
  prefill.spares_free = faults.prefill_spares;
  prefill.failure_rate = faults.prefill_failure_rate_per_s;
  prefill.degrade_rate = degraded.prefill_rate_per_s;
  prefill.instances_per_domain = domains.prefill_instances_per_domain;
  decode.provisioned = config.decode_instances;
  decode.spares_free = faults.decode_spares;
  decode.failure_rate = faults.decode_failure_rate_per_s;
  decode.degrade_rate = degraded.decode_rate_per_s;
  decode.instances_per_domain = domains.decode_instances_per_domain;
  if (stream_ttft) {
    metrics.ttft_streamed = true;
    metrics.ttft_hist = LatencyHistogram(kTtftHistHiS);
  }

  // --- autoscaler state (dormant unless cfg.enabled) ---
  const ServeAutoscalerConfig& scaler = config.autoscaler;
  int up_seq = 0;    // ordering sequence for simultaneous up events
  int tick_seq = 0;  // and for ticks
  double prev_tick_time = 0.0;
  // Incrementally maintained queued-token totals, read by autoscaler
  // ticks. Token counts are integers, so the running sums stay exactly
  // integer-valued in double and equal the reference's per-tick
  // re-summation bit for bit.
  const bool track_qsums = scaler.enabled;
  double queued_prompt_tokens = 0.0;
  double queued_output_tokens = 0.0;
  // Admitted demand for the predictive forecast: (time, class, tokens).
  // Pruned to the forecast window as arrivals stream in (not just at
  // ticks), so a long horizon holds O(rate * window) entries rather than
  // every admitted request; the tick-time prune would have discarded the
  // same entries anyway, so forecasts are unchanged.
  struct Demand {
    double t;
    double prompt_tokens;
    double output_tokens;
    int cls;
  };
  std::deque<Demand> demand_history;
  size_t peak_demand_entries = 0;
  if (scaler.enabled) {
    for (int p : {kPrefillPool, kDecodePool}) {
      metrics.pools[p].peak_instances = S.pools[p].provisioned;
    }
    events.Push({scaler.interval_s, ServeEventKind::kAutoscaleTick, tick_seq++});
  }

  // --- fault-injection state (dormant unless faults.enabled) ---
  std::optional<FaultStreams> fault_streams;
  auto schedule_next_failure = [&](int p, int slot, double from_t, int epoch) {
    double rate = S.pools[p].failure_rate;
    if (rate <= 0.0) {
      return;
    }
    // Failures are injected over the admission horizon only; the drain
    // tail past it runs fault-free, which also bounds the event stream.
    double t = from_t + fault_streams->NextFailureGap(static_cast<ScalePool>(p), slot, rate);
    if (t <= config.horizon_s) {
      events.Push({t, KindFor(ServeEventKind::kPrefillFail, p), slot, epoch});
    }
  };
  // Domain outage streams: one per failure domain, keyed by (seed, pool,
  // domain), injected over the admission horizon like instance failures.
  // Domains are discovered as the pool grows — domain d covers instances
  // [d*ipd, (d+1)*ipd) — and each domain's gap sequence depends only on its
  // id, never on when its first member appeared.
  auto schedule_next_domain_failure = [&](int p, int domain, double from_t) {
    double t = from_t + fault_streams->NextDomainFailureGap(static_cast<ScalePool>(p), domain,
                                                            domains.failure_rate_per_s);
    if (t <= config.horizon_s) {
      events.Push({t, KindFor(ServeEventKind::kPrefillDomainFail, p), domain});
    }
  };
  auto schedule_new_domains = [&](int p, double from_t) {
    PoolState& pool = S.pools[p];
    int ipd = pool.instances_per_domain;
    if (!domains_enabled || ipd <= 0) {
      return;
    }
    int want = (static_cast<int>(pool.size()) + ipd - 1) / ipd;
    while (pool.domains_scheduled < want) {
      schedule_next_domain_failure(p, pool.domains_scheduled++, from_t);
    }
  };
  // Degrade streams: per (pool, slot) like failures; a failure clears the
  // degraded state (epoch bump stales the pending end event) and the
  // recovery reschedules the slot's stream.
  auto schedule_next_degrade = [&](int p, int slot, double from_t, int epoch) {
    double rate = S.pools[p].degrade_rate;
    if (rate <= 0.0) {
      return;
    }
    double t = from_t + fault_streams->NextDegradeGap(static_cast<ScalePool>(p), slot, rate);
    if (t <= config.horizon_s) {
      events.Push({t, KindFor(ServeEventKind::kPrefillDegradeStart, p), slot, epoch});
    }
  };
  if (faults_enabled) {
    fault_streams.emplace(faults.seed);
    // Each stream's draws depend only on its (pool, slot or domain) key,
    // and pop order only on (time, kind, instance), so the order the
    // streams start in cannot change the run.
    for (int p : {kPrefillPool, kDecodePool}) {
      for (int i = 0; i < static_cast<int>(S.pools[p].size()); ++i) {
        schedule_next_failure(p, i, 0.0, 0);
        if (degrade_enabled) {
          schedule_next_degrade(p, i, 0.0, 0);
        }
      }
      schedule_new_domains(p, 0.0);
    }
  }

  // Per-class bookkeeping only exists when the caller asked for it, so
  // single-class runs pay nothing and stay bit-identical to the pre-class
  // simulator. Out-of-range class ids fold into class 0 rather than
  // indexing out of bounds (the Runner validates them upstream).
  const bool track_classes = config.num_classes > 0;
  const size_t ncls = track_classes ? static_cast<size_t>(config.num_classes) : 0;
  if (track_classes) {
    metrics.per_class.resize(ncls);
    if (stream_ttft) {
      for (ServeClassMetrics& pc : metrics.per_class) {
        pc.ttft_hist = LatencyHistogram(kTtftHistHiS);
      }
    }
  }
  auto class_of = [&](int req) {
    int cid = S.live[req].class_id;
    return (cid >= 0 && cid < config.num_classes) ? cid : 0;
  };
  if (!stream_ttft) {
    // Every admitted request records exactly one TTFT sample; reserving up
    // front spares a million-request run the repeated reallocation copies.
    metrics.ttft_s.Reserve(stream.ExpectedCount());
  }
  auto record_ttft = [&](int req, double value) {
    if (stream_ttft) {
      metrics.ttft_hist.Add(value);
    } else {
      metrics.ttft_s.Add(value);
    }
    if (track_classes) {
      ServeClassMetrics& pc = metrics.per_class[static_cast<size_t>(class_of(req))];
      if (stream_ttft) {
        pc.ttft_hist.Add(value);
      } else {
        pc.ttft_s.Add(value);
      }
    }
  };

  double now = 0.0;
  // Workload progress time: arrivals and completions, NOT autoscaler
  // ticks/ups — the final makespan must not stretch to a trailing decision
  // tick that did no work.
  double progress_now = 0.0;

  // Close an instance's open throttled window (degrade end, failure, or
  // retirement), banking the degraded instance-seconds.
  auto close_degrade = [&](int p, int i) {
    PoolState& pool = S.pools[p];
    if (pool.degrade_since[i] >= 0.0) {
      metrics.pools[p].degraded_instance_s += now - pool.degrade_since[i];
      pool.degrade_since[i] = -1.0;
      pool.degrade_mult[i] = 1.0;
    }
  };

  // --- decode macro-steps ---
  // Each busy decode instance runs a macro-step of d_macro_steps steps of
  // d_step_duration from its start; d_step_started is the start of the
  // last step charged to busy time.
  int cuttable_runs = 0;  // set bits in S.d_cuttable
  auto set_cuttable = [&](int i, bool on) {
    uint64_t bit = 1ull << (static_cast<unsigned>(i) & 63);
    uint64_t& word = S.d_cuttable[static_cast<size_t>(i) >> 6];
    cuttable_runs += static_cast<int>(on) - static_cast<int>((word & bit) != 0);
    word = on ? (word | bit) : (word & ~bit);
  };
  // Charges the run's steps that start before `t` (at or before it when
  // `inclusive`): busy time and batch-time product, one addition per step
  // in step order, as the per-step loop charged them at each step start.
  // A long span first jumps to a few steps short of `t` with RepeatedSum,
  // which lands on the additions' exact results. Step starts only grow, so
  // the jump stands iff the last start it reaches is still before `t`.
  auto charge_decode = [&](int i, double t, bool inclusive) {
    const double duration = S.d_step_duration[i];
    const double step_product = S.d_active_count[i] * duration;
    const int steps = S.d_macro_steps[i];
    int charged = S.d_macro_charged[i];
    double started = S.d_step_started[i];
    double busy = decode.busy_time[i];
    double product = S.d_batch_time_product[i];
    auto starts_in_time = [&](double start) { return inclusive ? start <= t : start < t; };
    const int left = steps - charged;
    if (left > static_cast<int>(kRepeatedSumMinSteps)) {
      double span = (t - started) / duration;  // steps to t, if exact
      if (span > static_cast<double>(kRepeatedSumMinSteps)) {
        int k = span >= left + 2.0 ? left : static_cast<int>(span) - 2;
        double jumped = RepeatedSum(started, duration, static_cast<uint64_t>(k));
        if (starts_in_time(jumped)) {
          started = jumped;
          busy = RepeatedSum(busy, duration, static_cast<uint64_t>(k));
          product = RepeatedSum(product, step_product, static_cast<uint64_t>(k));
          charged += k;
        }
      }
    }
    while (charged < steps && starts_in_time(started + duration)) {
      started += duration;
      busy += duration;
      product += step_product;
      ++charged;
    }
    S.d_macro_charged[i] = charged;
    S.d_step_started[i] = started;
    decode.busy_time[i] = busy;
    S.d_batch_time_product[i] = product;
  };
  // Records `k` completed steps of instance i's current batch: TBT samples
  // and tokens (global, degraded, per class). Advancing the step count is
  // the caller's.
  auto emit_decode_steps = [&](int i, int k) {
    const double duration = S.d_step_duration[i];
    const size_t steps = static_cast<size_t>(k);
    // Every active sequence emitted one token per step.
    metrics.tbt_s.Add(duration, steps);
    double tokens = static_cast<double>(static_cast<size_t>(S.d_active_count[i]) * steps);
    metrics.output_tokens += tokens;
    if (degrade_enabled && decode.degrade_since[i] >= 0.0) {
      metrics.degraded_output_tokens += tokens;
    }
    if (track_classes) {
      // Each active sequence of a class experienced every step's duration
      // as one inter-token gap: one weighted add per class.
      const int* active = &S.class_active[static_cast<size_t>(i) * ncls];
      for (size_t c = 0; c < ncls; ++c) {
        if (active[c] > 0) {
          size_t n = static_cast<size_t>(active[c]) * steps;
          metrics.per_class[c].tbt_s.Add(duration, n);
          metrics.per_class[c].output_tokens += static_cast<double>(n);
        }
      }
    }
  };
  // Before a failure or degrade transition touches instance i: charge every
  // step that starts before now and emit every step that ended before now,
  // so the run's state is the per-step loop's at this instant.
  auto settle_decode = [&](int i) {
    if (!(decode.state[i] & kBusy) || S.d_macro_steps[i] == 1) {
      return;
    }
    charge_decode(i, now, /*inclusive=*/false);
    int k = S.d_macro_charged[i] - 1 - S.d_macro_done[i];
    if (k <= 0) {
      return;
    }
    emit_decode_steps(i, k);
    S.d_step_count[i] += static_cast<uint64_t>(k);
    S.d_macro_done[i] += k;
    // The last emitted boundary is the start of the step in progress.
    progress_now = std::max(progress_now, S.d_step_started[i]);
  };
  // Ends instance i's run at its first step boundary at or after now,
  // re-scheduling its end event there. The run leaves the cuttable set:
  // its end is a real boundary now.
  auto cut_decode = [&](int i) {
    charge_decode(i, now, /*inclusive=*/false);
    if (S.d_macro_charged[i] < S.d_macro_steps[i]) {
      S.d_macro_steps[i] = S.d_macro_charged[i];
      events.Push({S.d_step_started[i] + S.d_step_duration[i],
                   ServeEventKind::kDecodeStepDone, i, ++S.d_step_seq[i]});
    }
    set_cuttable(i, false);
  };
  // Designation invariant: while the decode queue is non-empty, either one
  // designated run has been cut at the first boundary where a cuttable run
  // could admit, or no cuttable run exists. Runs that start while the
  // queue is non-empty and could admit plan a single step, so no cuttable
  // run appears until the queue empties, and a designation stays the
  // earliest until its boundary passes or its instance drains or fails.
  // It is chosen afresh when a prefill pass refills the empty queue while
  // a cuttable run exists, and when one of those three ends it with work
  // still queued. A value left from an earlier stretch is harmless: it
  // only triggers one more choice.
  constexpr int kDesignationNeeded = -1;
  constexpr int kNoneCuttable = -2;
  int designated = kDesignationNeeded;
  // With work queued, cuts the cuttable run whose next boundary at or after
  // now comes first (ties to the lowest index) and designates it.
  auto redesignate = [&]() {
    if (decode_queue.empty()) {
      designated = kDesignationNeeded;
      return;
    }
    designated = kNoneCuttable;
    double best_t = std::numeric_limits<double>::infinity();
    for (size_t w = 0; w < S.d_cuttable.size() && cuttable_runs > 0; ++w) {
      uint64_t bits = S.d_cuttable[w];
      while (bits != 0) {
        int i = static_cast<int>((w << 6) + static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
        charge_decode(i, now, /*inclusive=*/false);
        double boundary = S.d_step_started[i] + S.d_step_duration[i];
        if (boundary < best_t) {  // strict: ties go to the lowest index
          designated = i;
          best_t = boundary;
        }
      }
    }
    if (designated >= 0) {
      cut_decode(designated);
    }
  };
  auto ensure_designation = [&]() {
    if (designated == kDesignationNeeded) {
      redesignate();
    }
  };
  // Instance i leaves the cuttable set (it drains or fails); a designation
  // on it no longer holds.
  auto drop_cuttable = [&](int i) {
    set_cuttable(i, false);
    if (designated == i) {
      designated = kDesignationNeeded;
    }
  };

  // Recovery tracking: the largest single failure group (one independent
  // failure or one domain outage's members) by discarded tokens; the loop
  // then watches for the first instant both queues are empty again.
  bool drain_pending = false;
  auto note_outage = [&](double lost) {
    if (lost > metrics.largest_outage_lost_tokens) {
      metrics.largest_outage_lost_tokens = lost;
      metrics.largest_outage_time_s = now;
      metrics.time_to_drain_s = -1.0;
      drain_pending = true;
    }
  };

  auto try_start_prefill = [&](double t) {
    // Set bits scan in ascending instance order — the same order the plain
    // index loop dispatched in. Instances with a nonzero status byte have
    // no side effects in that loop, so skipping them is behavior-identical.
    for (size_t w = 0; w < prefill.ready.size() && !prefill_queue.empty(); ++w) {
      uint64_t bits = prefill.ready[w];
      while (bits != 0 && !prefill_queue.empty()) {
        int i = static_cast<int>((w << 6) +
                                 static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
        int batch = std::min<int>(table.max_prefill_batch(),
                                  static_cast<int>(prefill_queue.size()));
        std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
        slots.clear();
        for (int b = 0; b < batch; ++b) {
          int req = prefill_queue.front();
          prefill_queue.pop_front();
          slots.push_back(req);
          if (track_qsums) {
            queued_prompt_tokens -= S.live[req].prompt_tokens;
          }
        }
        double duration = table.PrefillTime(batch);
        if (degrade_enabled) {
          // Applied on dispatch only: in-flight passes keep the duration
          // they started with, so busy-time refunds stay exact.
          duration *= prefill.degrade_mult[i];
        }
        prefill.state[i] |= kBusy;
        prefill.SyncReady(i);
        prefill.busy_time[i] += duration;
        S.p_pass_started[i] = t;
        S.p_pass_duration[i] = duration;
        events.Push({t + duration, ServeEventKind::kPrefillDone, i, prefill.epoch[i]});
        S.prefill_ends.Add(t + duration);
      }
    }
  };

  auto try_start_decode_step_at = [&](double t, int i) {
    const int max_batch = table.max_decode_batch();
    CompletionWheel& wheel = S.d_wheel[static_cast<size_t>(i)];
    {
      // Admit waiting sequences at the step boundary (draining instances
      // only finish what they already hold).
      if (!(decode.state[i] & kDraining)) {
        while (!decode_queue.empty() && S.d_active_count[i] < max_batch) {
          int req = decode_queue.front();
          decode_queue.pop_front();
          uint64_t left = static_cast<uint64_t>(
              std::max(1, S.live[req].output_tokens));
          int cls = 0;
          if (track_classes) {
            cls = class_of(req);
            ++S.class_active[static_cast<size_t>(i) * ncls + static_cast<size_t>(cls)];
          }
          wheel.Push(S.d_step_count[i], {S.d_step_count[i] + left, req, cls});
          ++S.d_active_count[i];
          if (track_qsums) {
            queued_output_tokens -= S.live[req].output_tokens;
          }
        }
      }
      int batch = S.d_active_count[i];
      if (batch == 0) {
        return;
      }
      double duration = table.DecodeStepTime(batch);
      if (degrade_enabled) {
        duration *= decode.degrade_mult[i];
      }
      decode.state[i] |= kBusy;
      decode.SyncReady(i);
      S.d_step_started[i] = t;
      S.d_step_duration[i] = duration;
      decode.busy_time[i] += duration;
      S.d_batch_time_product[i] += batch * duration;
      // Plan the run up to the first completion; a single step instead
      // when the instance could admit and work is waiting or due in it.
      int steps = 1;
      double end = t + duration;
      bool could_admit = !(decode.state[i] & kDraining) && batch < max_batch;
      if (!could_admit ||
          (decode_queue.empty() && !S.prefill_ends.AnyEndBy(now, end))) {
        steps = static_cast<int>(wheel.NextFinish(S.d_step_count[i]) - S.d_step_count[i]);
        end = RepeatedSum(end, duration, static_cast<uint64_t>(steps - 1));
        S.d_macro_charged[i] = 1;
        S.d_macro_done[i] = 0;
        if (could_admit && steps > 1) {
          set_cuttable(i, true);
        }
      }
      S.d_macro_steps[i] = steps;
      events.Push({end, ServeEventKind::kDecodeStepDone, i, S.d_step_seq[i]});
    }
  };

  auto try_start_decode_step = [&](double t) {
    // Ascending-bit scan = the plain loop's ascending index order; skipped
    // instances (busy, down, or inactive) were pure no-ops there.
    for (size_t w = 0; w < decode.ready.size(); ++w) {
      uint64_t bits = decode.ready[w];
      while (bits != 0) {
        int i = static_cast<int>((w << 6) +
                                 static_cast<size_t>(__builtin_ctzll(bits)));
        bits &= bits - 1;
        try_start_decode_step_at(t, i);
      }
    }
  };

  // --- autoscaler actions ---
  auto retire = [&](int p, int i, const char* reason) {
    PoolState& pool = S.pools[p];
    close_degrade(p, i);
    pool.state[i] = static_cast<uint8_t>((pool.state[i] & ~kDraining) | kInactive);
    pool.SyncReady(i);
    pool.down_time[i] = now;
    --pool.provisioned;
    metrics.scale_events.push_back(
        {now, static_cast<ScalePool>(p), -1, pool.provisioned, reason});
  };
  // Pick the highest-index live instance: the most recently provisioned
  // capacity leaves first, keeping the initial pool stable. An idle one
  // retires now; a busy one (or a decode instance still holding sequences)
  // drains first.
  auto drain_one = [&](int p, const char* reason) {
    PoolState& pool = S.pools[p];
    for (int i = static_cast<int>(pool.size()) - 1; i >= 0; --i) {
      if (!(pool.state[i] & (kInactive | kDraining | kDown))) {
        if (!(pool.state[i] & kBusy) && (p == kPrefillPool || S.d_active_count[i] == 0)) {
          retire(p, i, reason);
        } else {
          pool.state[i] |= kDraining;
          pool.SyncReady(i);
          pool.drain_reason[i] = reason;
          if (p == kDecodePool) {
            drop_cuttable(i);
          }
        }
        return;
      }
    }
  };

  // --- fault actions ---
  // What happens to a request whose instance died under it.
  auto requeue_or_drop = [&](int req) {
    bool retry = faults.retry_policy == FaultRetryPolicy::kRetry;
    if (faults.retry_policy == FaultRetryPolicy::kRetryWithBudget) {
      int& retries = S.live[req].retries;
      retry = retries < faults.retry_budget;
      if (retry) {
        ++retries;
      }
    }
    if (retry) {
      // The KV cache died with the instance: back of the prefill queue.
      prefill_queue.push_back(req);
      if (track_qsums) {
        queued_prompt_tokens += S.live[req].prompt_tokens;
      }
      ++metrics.retried_requests;
    } else {
      ++metrics.dropped_requests;
      S.live.Finish(req);
    }
  };

  // An instance failure kills its in-flight work per pool (refunding the
  // busy time the unfinished pass/step had claimed up front, requeueing or
  // dropping the victims, adding their tokens to `lost`, returning how many
  // died), then takes the instance down for the spare-activation delay or
  // the full repair; a spare's repaired device returns later. A draining
  // instance that fails simply retires. domain >= 0 marks a member of a
  // correlated domain outage: it bypasses hot spares (a rack outage is not
  // maskable by a spare device) and waits out the domain repair instead.
  auto kill_prefill = [&](int i, double& lost) {
    std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
    if (!(prefill.state[i] & kBusy)) {
      return 0;
    }
    prefill.busy_time[i] -= S.p_pass_started[i] + S.p_pass_duration[i] - now;
    int killed = static_cast<int>(slots.size());
    for (int req : slots) {
      lost += S.live[req].prompt_tokens;
      requeue_or_drop(req);
    }
    slots.clear();
    prefill.state[i] &= static_cast<uint8_t>(~kBusy);
    return killed;
  };
  auto kill_decode = [&](int i, double& lost) {
    settle_decode(i);  // steps ending before now completed
    int killed = S.d_active_count[i];
    if (decode.state[i] & kBusy) {
      // Settled above: d_step_started is the step in progress.
      double unfinished = S.d_step_started[i] + S.d_step_duration[i] - now;
      decode.busy_time[i] -= unfinished;
      S.d_batch_time_product[i] -= static_cast<double>(killed) * unfinished;
      decode.state[i] &= static_cast<uint8_t>(~kBusy);
      ++S.d_step_seq[i];  // stales the run's end event
      drop_cuttable(i);
    }
    // Victims requeue (or drop) oldest first: request index is arrival order.
    for (const Completion& c : S.d_wheel[static_cast<size_t>(i)].Drain()) {
      // Generated-so-far tokens die with the KV cache: they are not
      // horizon goodput, so back them out of the token counts.
      int left = static_cast<int>(c.finish_step - S.d_step_count[i]);
      double generated = static_cast<double>(
          std::max(1, S.live[c.request].output_tokens) - left);
      lost += generated;
      metrics.output_tokens -= generated;
      if (track_classes) {
        metrics.per_class[static_cast<size_t>(c.cls)].output_tokens -= generated;
        --S.class_active[static_cast<size_t>(i) * ncls + static_cast<size_t>(c.cls)];
      }
      requeue_or_drop(c.request);
    }
    S.d_active_count[i] = 0;
    return killed;
  };
  auto fail = [&](int p, int i, int domain) {
    PoolState& pool = S.pools[p];
    double lost = 0.0;
    int killed = p == kPrefillPool ? kill_prefill(i, lost) : kill_decode(i, lost);
    close_degrade(p, i);
    ++pool.epoch[i];
    metrics.lost_tokens += lost;
    ScalePool sp = static_cast<ScalePool>(p);
    if (pool.state[i] & kDraining) {
      metrics.fault_events.push_back(
          {now, FaultEventKind::kFailure, sp, i, killed, lost, pool.spares_free, domain});
      retire(p, i, pool.drain_reason[i]);
      return;
    }
    pool.state[i] |= kDown;
    pool.SyncReady(i);
    pool.via_spare[i] = 0;
    double delay = faults.repair_s;
    if (domain >= 0) {
      delay = domains.repair_s;
    } else if (pool.spares_free > 0) {
      --pool.spares_free;
      pool.via_spare[i] = 1;
      delay = faults.spare_activation_s;
      events.Push({now + faults.repair_s, KindFor(ServeEventKind::kPrefillSpareReturn, p), i});
    }
    metrics.fault_events.push_back(
        {now, FaultEventKind::kFailure, sp, i, killed, lost, pool.spares_free, domain});
    events.Push({now + delay, KindFor(ServeEventKind::kPrefillRecover, p), i, pool.epoch[i]});
  };

  // One autoscaler decision: reactive thresholds on backlog/utilization, or
  // a per-class demand forecast (predictive) with the backlog trigger kept
  // as a safety net. Applied per pool, at most one scale-down per tick.
  auto autoscale_tick = [&]() {
    double window = now - prev_tick_time;
    int live_n[2] = {0, 0};
    double busy[2] = {0.0, 0.0};
    // Down (failed) instances are not live: the autoscaler sees the
    // reduced pool and can provision replacements while repairs run.
    for (int p : {kPrefillPool, kDecodePool}) {
      const PoolState& pool = S.pools[p];
      for (size_t i = 0; i < pool.size(); ++i) {
        if (!(pool.state[i] & (kInactive | kDraining | kDown))) {
          ++live_n[p];
        }
        if (p == kDecodePool && (pool.state[i] & kBusy)) {
          // Steps starting at this instant already started in step order.
          charge_decode(static_cast<int>(i), now, /*inclusive=*/true);
        }
        busy[p] += pool.busy_time[i];
      }
    }

    // Predictive forecast: per-class token demand over two half-windows,
    // linearly extrapolated half a window ahead, clamped at zero per class
    // so one collapsing class does not mask another's growth.
    double forecast_prompt_rate = 0.0;
    double forecast_output_rate = 0.0;
    if (scaler.predictive) {
      double half = scaler.forecast_window_s / 2.0;
      while (!demand_history.empty() &&
             demand_history.front().t < now - scaler.forecast_window_s) {
        demand_history.pop_front();
      }
      size_t fcls = static_cast<size_t>(std::max(1, config.num_classes));
      std::vector<double> recent_prompt(fcls, 0.0), old_prompt(fcls, 0.0);
      std::vector<double> recent_output(fcls, 0.0), old_output(fcls, 0.0);
      for (const Demand& d : demand_history) {
        size_t c = (d.cls >= 0 && d.cls < static_cast<int>(fcls))
                       ? static_cast<size_t>(d.cls)
                       : 0;
        if (d.t >= now - half) {
          recent_prompt[c] += d.prompt_tokens;
          recent_output[c] += d.output_tokens;
        } else {
          old_prompt[c] += d.prompt_tokens;
          old_output[c] += d.output_tokens;
        }
      }
      for (size_t c = 0; c < fcls; ++c) {
        forecast_prompt_rate += std::max(0.0, 2.0 * recent_prompt[c] - old_prompt[c]) / half;
        forecast_output_rate += std::max(0.0, 2.0 * recent_output[c] - old_output[c]) / half;
      }
    }

    auto plan_pool = [&](int p) {
      PoolState& pool = S.pools[p];
      bool is_prefill = p == kPrefillPool;
      int live = live_n[p];
      int& pending = pool.pending_ups;
      double per_instance = is_prefill ? scaler.prefill_tokens_per_s : scaler.decode_tokens_per_s;
      double queued_tokens = is_prefill ? queued_prompt_tokens : queued_output_tokens;
      double busy_delta = busy[p] - pool.prev_busy;
      int min_n = is_prefill ? scaler.min_prefill_instances : scaler.min_decode_instances;
      int max_n = is_prefill ? scaler.max_prefill_instances : scaler.max_decode_instances;
      double utilization =
          (window > 0.0 && live > 0) ? busy_delta / (live * window) : 0.0;
      double backlog_s = per_instance > 0.0
                             ? queued_tokens / (std::max(1, live) * per_instance)
                             : 0.0;
      int target = live + pending;

      auto schedule_up = [&](const char* reason) {
        events.Push({now + scaler.delay_s, KindFor(ServeEventKind::kPrefillUp, p), up_seq++});
        pool.up_reasons.push_back(reason);
        ++pending;
        ++target;
      };

      if (scaler.predictive) {
        double forecast_rate = is_prefill ? forecast_prompt_rate : forecast_output_rate;
        int desired = live;
        if (per_instance > 0.0) {
          desired = static_cast<int>(std::ceil(scaler.headroom * forecast_rate / per_instance));
        }
        desired = std::min(std::max(desired, min_n), max_n);
        while (target < desired) {
          schedule_up("forecast");
        }
        if (backlog_s > scaler.scale_up_backlog_s && target < max_n) {
          schedule_up("backlog");  // reactive safety net under forecast misses
        }
        if (pending == 0 && target > desired && queued_tokens <= 0.0 && target > min_n) {
          drain_one(p, "forecast");
        }
        return;
      }

      const char* up_reason = nullptr;
      if (backlog_s > scaler.scale_up_backlog_s) {
        up_reason = "backlog";
      } else if (utilization > scaler.scale_up_utilization) {
        up_reason = "utilization";
      }
      if (up_reason != nullptr) {
        if (target < max_n) {
          schedule_up(up_reason);
        }
      } else if (pending == 0 && target > min_n &&
                 utilization < scaler.scale_down_utilization && queued_tokens <= 0.0) {
        drain_one(p, "utilization");
      }
    };
    for (int p : {kPrefillPool, kDecodePool}) {
      plan_pool(p);
    }
    prev_tick_time = now;
    for (int p : {kPrefillPool, kDecodePool}) {
      S.pools[p].prev_busy = busy[p];
    }

    // Keep ticking only while there is anything left to manage; otherwise
    // the tick stream would keep the event loop alive forever (the default
    // horizon is effectively infinite).
    bool work_left = !stream.done() || !prefill_queue.empty() ||
                     !decode_queue.empty() || prefill.pending_ups > 0 || decode.pending_ups > 0;
    for (size_t i = 0; !work_left && i < prefill.size(); ++i) {
      work_left = prefill.state[i] & kBusy;
    }
    for (size_t i = 0; !work_left && i < decode.size(); ++i) {
      work_left = (decode.state[i] & kBusy) || S.d_active_count[i] > 0;
    }
    if (work_left) {
      events.Push({now + scaler.interval_s, ServeEventKind::kAutoscaleTick, tick_seq++});
    }
  };

  // Whether a lifecycle event still applies: its instance is not retired
  // and no failure has bumped its epoch since the event was scheduled.
  auto current = [](const PoolState& pool, const ServeEvent& e) {
    return !(pool.state[e.instance] & kInactive) && e.epoch == pool.epoch[e.instance];
  };
  auto try_start = [&](int p) {
    if (p == kPrefillPool) {
      try_start_prefill(now);
    } else {
      try_start_decode_step(now);
    }
  };

  for (;;) {
    // First instant both queues are empty after the largest outage: the
    // check runs at the top of every iteration (after the previous item
    // fully processed), gated on drain_pending so fault-free runs never
    // pay it.
    if (drain_pending && prefill_queue.empty() && decode_queue.empty()) {
      metrics.time_to_drain_s = now - metrics.largest_outage_time_s;
      drain_pending = false;
    }
    double arrival_t =
        stream.done() ? std::numeric_limits<double>::max() : stream.PeekArrival();
    double event_t =
        events.empty() ? std::numeric_limits<double>::max() : events.PeekTime();
    if (arrival_t == std::numeric_limits<double>::max() &&
        event_t == std::numeric_limits<double>::max()) {
      break;
    }

    if (arrival_t <= event_t) {
      // Pulled when due: the engine holds a request only while it is live.
      int req = S.live.Push(stream.Next());
      now = arrival_t;
      progress_now = now;
      if (now > config.horizon_s) {
        S.live.Finish(req);  // past the horizon: never admitted
      } else {
        // Admission control: a shed request reached the cluster (it counts
        // as admitted, globally and per class) but never enters the
        // prefill queue, so admitted = completed + dropped + shed once the
        // run drains.
        bool shed = false;
        ShedReason shed_reason = ShedReason::kQueueDepth;
        if (shed_enabled) {
          if (shedding.max_queue_depth > 0 &&
              static_cast<int>(prefill_queue.size()) >= shedding.max_queue_depth) {
            shed = true;
          } else if (shedding.ttft_deadline_s > 0.0) {
            int live = 0;
            for (size_t i = 0; i < prefill.size(); ++i) {
              if (!(prefill.state[i] & (kInactive | kDraining | kDown))) {
                ++live;
              }
            }
            if (live == 0) {
              shed = true;
              shed_reason = ShedReason::kDeadline;
            } else {
              double waves = std::ceil(
                  (static_cast<double>(prefill_queue.size()) + 1.0) /
                  (static_cast<double>(table.max_prefill_batch()) * live));
              if (waves * shed_pass_s > shedding.ttft_deadline_s) {
                shed = true;
                shed_reason = ShedReason::kDeadline;
              }
            }
          }
        }
        ++metrics.admitted_requests;
        if (track_classes) {
          ++metrics.per_class[static_cast<size_t>(class_of(req))].admitted_requests;
        }
        if (shed) {
          ++metrics.shed_requests;
          metrics.shed_events.push_back({now, req, shed_reason});
          S.live.Finish(req);
        } else {
          prefill_queue.push_back(req);
          const LiveRequest& r = S.live[req];
          if (track_qsums) {
            queued_prompt_tokens += r.prompt_tokens;
          }
          if (scaler.enabled && scaler.predictive) {
            while (!demand_history.empty() &&
                   demand_history.front().t < now - scaler.forecast_window_s) {
              demand_history.pop_front();
            }
            demand_history.push_back({now, static_cast<double>(r.prompt_tokens),
                                      static_cast<double>(r.output_tokens), r.class_id});
            peak_demand_entries = std::max(peak_demand_entries, demand_history.size());
          }
        }
      }
      try_start_prefill(now);
      continue;
    }

    ServeEvent event = events.Pop();
    ++metrics.events_popped;
    now = event.time_s;

    // Hot kinds first: completions are the vast majority of a long
    // horizon's stream, so their dispatch pays at most two compares. The
    // test order is pure branch economy — each pop matches exactly one
    // kind, so it cannot affect processing order.
    if (event.kind == ServeEventKind::kDecodeStepDone) {
      int i = event.instance;
      if (event.epoch != S.d_step_seq[i]) {
        continue;  // the run was cut short, or killed by a failure
      }
      progress_now = now;
      // The run's last step ends now: charge and emit what no tick, cut or
      // settle did yet.
      int k = 1;
      if (S.d_macro_steps[i] > 1) {
        charge_decode(i, now, /*inclusive=*/true);
        set_cuttable(i, false);
        k = S.d_macro_steps[i] - S.d_macro_done[i];
      }
      emit_decode_steps(i, k);
      decode.state[i] &= static_cast<uint8_t>(~kBusy);
      decode.SyncReady(i);
      // Sequences whose remaining count just hit zero are exactly the
      // wheel entries at the new step count. Their completions commute:
      // each only finishes its request and bumps counters.
      uint64_t done_step = (S.d_step_count[i] += static_cast<uint64_t>(k));
      S.d_wheel[static_cast<size_t>(i)].PopStep(done_step, [&](const Completion& c) {
        size_t cls = static_cast<size_t>(c.cls);
        S.live.Finish(c.request);
        --S.d_active_count[i];
        ++metrics.completed_requests;
        if (track_classes) {
          ++metrics.per_class[cls].completed_requests;
          --S.class_active[static_cast<size_t>(i) * ncls + cls];
        }
        if (now > config.horizon_s) {
          // Admitted before the horizon, finished after it: the request
          // drains but its tail tokens are not horizon goodput.
          ++metrics.in_flight_at_horizon;
          if (track_classes) {
            ++metrics.per_class[cls].in_flight_at_horizon;
          }
        }
        metrics.makespan_s = now;
      });
      if ((decode.state[i] & kDraining) && S.d_active_count[i] == 0) {
        retire(kDecodePool, i, decode.drain_reason[i]);
      }
      // Only this instance became ready: every other ready instance is idle
      // with nothing to admit, since each handoff to the decode queue is
      // offered to every ready instance at once.
      if (!(decode.state[i] & (kDown | kInactive))) {
        try_start_decode_step_at(now, i);
      }
      if (designated == i) {
        redesignate();
      }
      continue;
    }
    if (event.kind == ServeEventKind::kPrefillDone) {
      int i = event.instance;
      if (faults_enabled && event.epoch != prefill.epoch[i]) {
        continue;  // the pass was killed by a failure before it finished
      }
      progress_now = now;
      bool refill = decode_queue.empty();
      std::vector<int>& slots = S.p_batch[static_cast<size_t>(i)];
      for (int req : slots) {
        // A retried request's first token was delivered by its first
        // successful prefill; later re-prefills don't re-record TTFT.
        if (!faults_enabled || S.live.FirstPrefill(req)) {
          record_ttft(req, now - S.live[req].arrival_s);
        }
        decode_queue.push_back(req);
        if (track_qsums) {
          queued_output_tokens += S.live[req].output_tokens;
        }
      }
      slots.clear();
      prefill.state[i] &= static_cast<uint8_t>(~kBusy);
      prefill.SyncReady(i);
      if (prefill.state[i] & kDraining) {
        retire(kPrefillPool, i, prefill.drain_reason[i]);
      }
      try_start_prefill(now);
      try_start_decode_step(now);
      if (refill && cuttable_runs > 0) {
        redesignate();
      }
      continue;
    }

    if (event.kind == ServeEventKind::kAutoscaleTick) {
      autoscale_tick();
      ensure_designation();  // a drain may have taken the designated run
      continue;
    }
    // Every other kind is one of a prefill/decode pair.
    const int p = PoolOf(event.kind);
    const ScalePool sp = static_cast<ScalePool>(p);
    PoolState& pool = S.pools[p];
    const int i = event.instance;  // the domain of a domain failure
    switch (PairOf(event.kind)) {
      case ServeEventKind::kPrefillFail:
        if (current(pool, event)) {
          double lost_before = metrics.lost_tokens;
          fail(p, i, /*domain=*/-1);
          if (p == kDecodePool) {
            ensure_designation();
          }
          note_outage(metrics.lost_tokens - lost_before);
          // Retried victims queue for prefill; surviving instances pick
          // them up immediately.
          try_start_prefill(now);
        }
        break;
      case ServeEventKind::kPrefillDomainFail: {
        // One domain outage downs every live member at this timestamp, in
        // ascending instance order; the whole group is one outage for the
        // blast-radius / drain accounting.
        int lo = i * pool.instances_per_domain;
        int hi = std::min(static_cast<int>(pool.size()), lo + pool.instances_per_domain);
        double lost_before = metrics.lost_tokens;
        for (int m = lo; m < hi; ++m) {
          if (!(pool.state[m] & (kInactive | kDown))) {  // else nothing left to kill
            fail(p, m, i);
          }
        }
        ensure_designation();
        note_outage(metrics.lost_tokens - lost_before);
        schedule_next_domain_failure(p, i, now);
        try_start_prefill(now);
        break;
      }
      case ServeEventKind::kPrefillDegradeStart: {
        if (!current(pool, event)) {
          break;
        }
        // The slot's stream yields gap, duration, gap, duration, ... in
        // event order; failures stale pending windows via the epoch (the
        // recovery reschedules the stream), so every draw happens at a
        // deterministic simulated time regardless of thread count.
        double duration = fault_streams->NextDegradeDuration(sp, i, degraded.mean_duration_s);
        if (p == kDecodePool) {
          settle_decode(i);  // steps ending before now ran healthy
        }
        pool.degrade_mult[i] = degraded.multiplier;
        pool.degrade_since[i] = now;
        if (p == kDecodePool && (pool.state[i] & kBusy)) {
          cut_decode(i);  // the next step starts slowed
        }
        ++metrics.degrade_windows;
        metrics.fault_events.push_back(
            {now, FaultEventKind::kDegradeStart, sp, i, 0, 0.0, pool.spares_free});
        events.Push({now + duration, KindFor(ServeEventKind::kPrefillDegradeEnd, p), i,
                     event.epoch});
        break;
      }
      case ServeEventKind::kPrefillDegradeEnd:
        if (!current(pool, event)) {
          break;  // a failure already cleared the window
        }
        if (p == kDecodePool) {
          settle_decode(i);
        }
        close_degrade(p, i);
        if (p == kDecodePool && (pool.state[i] & kBusy)) {
          cut_decode(i);
        }
        metrics.fault_events.push_back(
            {now, FaultEventKind::kDegradeEnd, sp, i, 0, 0.0, pool.spares_free});
        schedule_next_degrade(p, i, now, event.epoch);
        break;
      case ServeEventKind::kPrefillRecover:
        if (!current(pool, event)) {
          break;  // retired while down
        }
        pool.state[i] &= static_cast<uint8_t>(~kDown);
        pool.SyncReady(i);
        metrics.fault_events.push_back(
            {now, pool.via_spare[i] ? FaultEventKind::kSpareActivation : FaultEventKind::kRepair,
             sp, i, 0, 0.0, pool.spares_free});
        schedule_next_failure(p, i, now, pool.epoch[i]);
        schedule_next_degrade(p, i, now, pool.epoch[i]);
        try_start(p);
        break;
      case ServeEventKind::kPrefillSpareReturn:
        ++pool.spares_free;
        metrics.fault_events.push_back(
            {now, FaultEventKind::kSpareReturn, sp, i, 0, 0.0, pool.spares_free});
        break;
      case ServeEventKind::kPrefillUp: {
        S.AddInstance(p, now, config.num_classes);
        --pool.pending_ups;
        ++pool.provisioned;
        int& peak = metrics.pools[p].peak_instances;
        peak = std::max(peak, pool.provisioned);
        const char* reason = pool.up_reasons.front();
        pool.up_reasons.pop_front();
        metrics.scale_events.push_back({now, sp, +1, pool.provisioned, reason});
        if (faults_enabled) {
          int slot = static_cast<int>(pool.size()) - 1;
          schedule_next_failure(p, slot, now, 0);
          schedule_new_domains(p, now);
          schedule_next_degrade(p, slot, now, 0);
        }
        try_start(p);
        break;
      }
      default:
        break;  // the hot kinds and ticks are handled above
    }
  }

  metrics.makespan_s = std::max(metrics.makespan_s, progress_now);
  metrics.peak_demand_entries = peak_demand_entries;
  metrics.peak_live_requests = S.live.peak();
  if (metrics.makespan_s > 0.0) {
    metrics.decode_tokens_per_s = metrics.output_tokens / metrics.makespan_s;
    for (int p : {kPrefillPool, kDecodePool}) {
      const PoolState& pool = S.pools[p];
      ServePoolMetrics& pm = metrics.pools[p];
      for (double b : pool.busy_time) {
        pm.busy_s += b;
      }
      if (scaler.enabled || faults_enabled) {
        // Provisioned instance-seconds over [0, makespan]: each instance
        // contributes its up..down (or up..end) lifetime, clamped so
        // retires recorded by trailing decision ticks don't overrun the
        // makespan. Fault runs fill these even with a fixed pool, so
        // measured availability has its 1 - downtime / provisioned
        // denominator.
        for (size_t i = 0; i < pool.size(); ++i) {
          double end = pool.down_time[i] >= 0.0 ? std::min(pool.down_time[i], metrics.makespan_s)
                                                : metrics.makespan_s;
          pm.instance_seconds += std::max(0.0, end - pool.up_time[i]);
        }
        pm.utilization = pm.instance_seconds > 0.0 ? pm.busy_s / pm.instance_seconds : 0.0;
        pm.final_instances = pool.provisioned;
      } else {
        int instances = p == kPrefillPool ? config.prefill_instances : config.decode_instances;
        pm.utilization = pm.busy_s / (instances * metrics.makespan_s);
      }
    }
    for (double b : S.d_batch_time_product) {
      metrics.decode_batch_time_product += b;
    }
    double decode_busy_s = metrics.pools[kDecodePool].busy_s;
    metrics.mean_decode_batch =
        decode_busy_s > 0.0 ? metrics.decode_batch_time_product / decode_busy_s : 0.0;
    if (faults_enabled) {
      // Per-pool downtime over [0, makespan], replayed from the event log:
      // each failure opens an interval its spare-activation/repair closes.
      // An interval left open by a retired-while-draining instance (no
      // recovery was scheduled) contributes nothing — the retirement is
      // already accounted in the instance-seconds integral.
      std::vector<double> down_since[2] = {std::vector<double>(prefill.size(), -1.0),
                                           std::vector<double>(decode.size(), -1.0)};
      for (const FaultEvent& e : metrics.fault_events) {
        int p = static_cast<int>(e.pool);
        double& since = down_since[p][static_cast<size_t>(e.instance)];
        if (e.kind == FaultEventKind::kFailure) {
          since = e.time_s;
        } else if (e.kind == FaultEventKind::kSpareActivation ||
                   e.kind == FaultEventKind::kRepair) {
          metrics.pools[p].fault_downtime_s +=
              std::min(e.time_s, metrics.makespan_s) - std::min(since, metrics.makespan_s);
          since = -1.0;
        }
      }
      for (int p : {kPrefillPool, kDecodePool}) {
        for (size_t i = 0; i < down_since[p].size(); ++i) {
          if (down_since[p][i] >= 0.0 && !(S.pools[p].state[i] & kInactive)) {
            metrics.pools[p].fault_downtime_s +=
                metrics.makespan_s - std::min(down_since[p][i], metrics.makespan_s);
          }
        }
      }
    }
  }
  for (int p : {kPrefillPool, kDecodePool}) {
    // Close windows still open at the end of the run, clipped to makespan.
    const PoolState& pool = S.pools[p];
    for (size_t i = 0; degrade_enabled && i < pool.size(); ++i) {
      if (pool.degrade_since[i] >= 0.0) {
        metrics.pools[p].degraded_instance_s +=
            std::max(0.0, metrics.makespan_s - pool.degrade_since[i]);
      }
    }
  }
  if (drain_pending) {
    // The queues never emptied again after the largest outage: the drain
    // took the rest of the run.
    metrics.time_to_drain_s =
        std::max(0.0, metrics.makespan_s - metrics.largest_outage_time_s);
  }
  return metrics;
}

ServeMetrics RunServeSimulation(const std::vector<Request>& requests,
                                const ServeClusterConfig& config,
                                const StepTimeTable& table) {
  RequestStream stream(requests);
  return RunServeSimulation(stream, config, table);
}

ServeMetrics MergeServeShardMetrics(const ServeClusterConfig& config,
                                    const std::vector<ServeMetrics>& shards) {
  ServeMetrics merged;
  if (shards.empty()) {
    return merged;
  }
  merged.ttft_streamed = true;
  merged.ttft_hist = LatencyHistogram(kTtftHistHiS);
  merged.per_class.resize(static_cast<size_t>(config.num_classes));
  for (ServeClassMetrics& pc : merged.per_class) {
    pc.ttft_hist = LatencyHistogram(kTtftHistHiS);
  }
  // Fold in shard-index order — deterministic regardless of which thread
  // finished which shard first.
  for (const ServeMetrics& m : shards) {
    assert(m.ttft_streamed && m.per_class.size() == merged.per_class.size() &&
           m.scale_events.empty() && m.fault_events.empty() && m.degrade_windows == 0 &&
           m.shed_requests == 0);
    merged.ttft_hist.Merge(m.ttft_hist);
    merged.tbt_s.Merge(m.tbt_s);
    merged.completed_requests += m.completed_requests;
    merged.admitted_requests += m.admitted_requests;
    merged.in_flight_at_horizon += m.in_flight_at_horizon;
    merged.output_tokens += m.output_tokens;
    // Sub-horizons run back to back conceptually: the merged makespan is
    // the summed wall of the shards, which keeps rate and utilization
    // denominators consistent with the summed numerators.
    merged.makespan_s += m.makespan_s;
    for (int p : {kPrefillPool, kDecodePool}) {
      merged.pools[p].busy_s += m.pools[p].busy_s;
    }
    merged.decode_batch_time_product += m.decode_batch_time_product;
    merged.events_popped += m.events_popped;
    merged.peak_live_requests = std::max(merged.peak_live_requests, m.peak_live_requests);
    for (size_t c = 0; c < merged.per_class.size(); ++c) {
      ServeClassMetrics& out = merged.per_class[c];
      const ServeClassMetrics& in = m.per_class[c];
      out.ttft_hist.Merge(in.ttft_hist);
      out.tbt_s.Merge(in.tbt_s);
      out.admitted_requests += in.admitted_requests;
      out.completed_requests += in.completed_requests;
      out.in_flight_at_horizon += in.in_flight_at_horizon;
      out.output_tokens += in.output_tokens;
    }
  }
  if (merged.makespan_s > 0.0) {
    merged.decode_tokens_per_s = merged.output_tokens / merged.makespan_s;
    for (int p : {kPrefillPool, kDecodePool}) {
      int instances = p == kPrefillPool ? config.prefill_instances : config.decode_instances;
      merged.pools[p].utilization = merged.pools[p].busy_s / (instances * merged.makespan_s);
    }
  }
  double decode_busy_s = merged.pools[kDecodePool].busy_s;
  merged.mean_decode_batch =
      decode_busy_s > 0.0 ? merged.decode_batch_time_product / decode_busy_s : 0.0;
  return merged;
}

}  // namespace litegpu
