#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace litebench {

namespace {

thread_local int t_current_span = -1;
thread_local int t_tid = -1;
std::atomic<int> g_next_tid{0};

int ThreadId() {
  if (t_tid < 0) {
    t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  }
  return t_tid;
}

}  // namespace

int Tracer::Begin(const char* name, int parent) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = parent == kInherit ? t_current_span : parent;
  span.rep = rep_.load(std::memory_order_relaxed);
  span.tid = ThreadId();
  std::lock_guard<std::mutex> lock(mu_);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int id) {
  if (id < 0) {
    return;
  }
  int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path, int max_reps) const {
  std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  int64_t origin = all.empty() ? 0 : all.front().start_ns;
  std::fputs("{\"traceEvents\": [\n", f);
  bool first = true;
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (s.rep >= max_reps) {
      continue;
    }
    int64_t end = s.end_ns < 0 ? s.start_ns : s.end_ns;
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
                 "\"rep\": %d}}",
                 first ? "" : ",\n", s.name, s.tid, (s.start_ns - origin) / 1e3,
                 (end - s.start_ns) / 1e3, i, s.parent, s.rep);
    first = false;
  }
  std::fputs("\n], \"displayTimeUnit\": \"ms\"}\n", f);
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name, int parent)
    : tracer_(tracer), id_(tracer.Begin(name, parent)), saved_current_(t_current_span) {
  if (id_ >= 0) {
    t_current_span = id_;
  }
}

ScopedSpan::~ScopedSpan() {
  tracer_.End(id_);
  t_current_span = saved_current_;
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.end_ns < 0) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the child intervals clipped to [start, end].
    int64_t covered = 0;
    int64_t run_lo = 0, run_hi = -1;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, s.start_ns);
      hi = std::min(hi, s.end_ns);
      if (hi <= lo) {
        continue;
      }
      if (lo > run_hi) {
        covered += run_hi > run_lo ? run_hi - run_lo : 0;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    covered += run_hi > run_lo ? run_hi - run_lo : 0;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) / 1e9;
  }
  return self;
}

std::vector<std::map<std::string, LayerTime>> LayerTimes(const std::vector<Span>& spans,
                                                         const std::vector<double>& self_s,
                                                         int reps) {
  std::vector<std::map<std::string, LayerTime>> out(static_cast<size_t>(std::max(reps, 0)));
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.rep < 0 || s.rep >= reps || s.end_ns < 0) {
      continue;
    }
    LayerTime& t = out[static_cast<size_t>(s.rep)][s.name];
    t.total_s += static_cast<double>(s.end_ns - s.start_ns) / 1e9;
    t.self_s += self_s[i];
  }
  return out;
}

}  // namespace litebench
