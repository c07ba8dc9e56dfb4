#pragma once

// Shared plumbing of the benchmark driver: host clocks, the in-memory span
// log of the traced run, order statistics, the simulated-output digest and
// the metric table printed as the result line.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double secondsSince(std::int64_t start_ns) {
  return static_cast<double>(nowNs() - start_ns) * 1e-9;
}

/// CPU time (user + system) of the calling thread. The simulator neither
/// sleeps nor waits on I/O, so on an idle machine this equals its wall
/// time; on a shared host it leaves out the time the thread waited for a
/// core, which measures the neighbours rather than the program.
[[nodiscard]] inline std::int64_t threadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

[[nodiscard]] inline double cpuSecondsSince(std::int64_t start_ns) {
  return static_cast<double>(threadCpuNs() - start_ns) * 1e-9;
}

/// Fixed reference work owned by the benchmark, so no change to the
/// simulator changes it: a 4096-entry min-heap of timestamps (pop the
/// earliest, push a later one) interleaved with dependent random reads and
/// writes in a 4 MiB table, the two kinds of work the simulator's hot paths
/// do. The timed phase runs one chunk every few tens of milliseconds; how
/// long a chunk takes tracks how fast the shared host is running the
/// benchmark at that moment.
class ReferenceWork {
 public:
  ReferenceWork() : table_(std::size_t{1} << 19), heap_(4096) {
    for (std::size_t i = 0; i < table_.size(); ++i) table_[i] = mix(i);
    for (std::size_t i = 0; i < heap_.size(); ++i) heap_[i] = mix(i) & 0xffff;
    std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  }
  /// Runs one chunk; returns its thread CPU seconds.
  double runChunk() {
    const std::int64_t c0 = threadCpuNs();
    std::uint64_t x = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = sink_;
    const std::size_t mask = table_.size() - 1;
    for (int i = 0; i < kOps; ++i) {
      x = mix(x);
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
      heap_.back() += 1 + (x & 0xffff);
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      std::uint64_t& slot = table_[(x ^ acc) & mask];
      acc += slot;
      slot = acc ^ x;
    }
    sink_ = acc;
    return static_cast<double>(threadCpuNs() - c0) * 1e-9;
  }

 private:
  static constexpr int kOps = 8192;
  static std::uint64_t mix(std::uint64_t z) {
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t sink_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Order-sensitive 64-bit fold of simulated outputs. Doubles enter by
/// their bit pattern, so any change to a simulated value changes the
/// digest.
class Digest {
 public:
  void add(std::uint64_t v) {
    h_ ^= v + 0x9e3779b97f4a7c15ULL + (h_ << 6) + (h_ >> 2);
    h_ *= 0xff51afd7ed558ccdULL;
    h_ ^= h_ >> 33;
  }
  void add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One span of the traced run: a call into a layer's public function,
/// timed from the benchmark side. `parent` indexes the enclosing span of
/// the same log (-1 for a root); `access` is the unit index the call
/// belongs to.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t access = 0;
};

/// Per-worker span store. Spans stay in memory until the run ends.
class SpanLog {
 public:
  std::int32_t open(const char* name, std::uint64_t access) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.access = access;
    s.start_ns = nowNs();
    spans_.push_back(s);
    const auto idx = static_cast<std::int32_t>(spans_.size() - 1);
    stack_.push_back(idx);
    return idx;
  }
  void close(std::int32_t idx) {
    spans_[static_cast<std::size_t>(idx)].end_ns = nowNs();
    stack_.pop_back();
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null log makes it free, which is how the untraced run
/// shares code with the traced one.
class Scoped {
 public:
  Scoped(SpanLog* log, const char* name, std::uint64_t access)
      : log_(log), idx_(log != nullptr ? log->open(name, access) : -1) {}
  ~Scoped() {
    if (log_ != nullptr) log_->close(idx_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  std::int32_t idx_;
};

/// Durations and self times per span name over every worker's log.
struct SpanSummary {
  struct Entry {
    std::vector<double> seconds;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Entry> by_name;

  void add(const SpanLog& log) {
    const auto& spans = log.spans();
    std::vector<double> child(spans.size(), 0.0);
    for (const auto& s : spans) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const double d =
          static_cast<double>(spans[i].end_ns - spans[i].start_ns) * 1e-9;
      Entry& e = by_name[spans[i].name];
      e.seconds.push_back(d);
      e.total_s += d;
      e.self_s += d - child[i];
    }
  }
  [[nodiscard]] const Entry* find(const std::string& name) const {
    const auto it = by_name.find(name);
    return it == by_name.end() ? nullptr : &it->second;
  }
  [[nodiscard]] double p50Ms(const std::string& name) const {
    const Entry* e = find(name);
    return e == nullptr ? 0.0 : 1e3 * median(e->seconds);
  }
  [[nodiscard]] double totalS(const std::string& name) const {
    const Entry* e = find(name);
    return e == nullptr ? 0.0 : e->total_s;
  }
};

/// Named metrics of the result line, in insertion order.
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit) {
    rows_.push_back({name, value, unit});
  }
  [[nodiscard]] std::string json() const;

 private:
  struct Row {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Row> rows_;
};

}  // namespace perfbench
