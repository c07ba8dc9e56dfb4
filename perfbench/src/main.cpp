// Repository benchmark driver.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--tiny] [--prefix N] [--inject digest|decode]
//             [--span-out PATH] [--crosscheck] [--setup-only]
//
// Runs one workload as a closed loop for S host seconds and prints, as the
// last line of stdout, one JSON object with the end-to-end metrics
// (--trace 0) or the per-layer metrics (--trace 1). Every run then re-runs
// the first units with tracing flipped and another worker count; their
// simulated outputs must match bit for bit, or the run fails (exit 1).
// Unknown arguments exit 2. Progress and diagnostics go to stderr.
//
// Host time is CPU time of the thread that did the work (see threadCpuNs),
// scaled to the speed of a reference host: the timed phase interleaves a
// fixed reference chunk (ReferenceWork) with the units, and each unit's time
// is multiplied by kRefChunkS over the median chunk time around it. A shared
// host's speed drifts by tens of percent from minute to minute with its
// neighbours' load; the scaling takes most of that drift out.
// setup_s is measured in fresh processes: the driver runs itself with
// --setup-only, which sets the workload up once and prints the CPU seconds
// the process has used by the end of set-up.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "layers.hpp"
#include "telemetry/host_profiler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using robustore::client::SchemeKind;
using robustore::telemetry::HostProfiler;
using robustore::telemetry::HostScope;

/// Cold set-ups per untraced run; setup_s is their median.
constexpr int kColdSetUps = 21;
/// The timed phase runs on one worker thread: more threads on the few
/// cores of a shared host measure the scheduler and each other's cache
/// traffic. The correctness gate runs on two.
constexpr unsigned kWorkers = 1;
constexpr unsigned kGateWorkers = 2;
/// Outcome records reserved per worker for a timed phase.
constexpr std::size_t kTimedUnitsReserved = std::size_t{1} << 15;
/// CPU time of timed work between two reference chunks.
constexpr std::int64_t kRefEveryNs = 25'000'000;
/// Reference chunks on each side of a unit whose median gives its host speed.
constexpr std::size_t kRefWindow = 10;
/// A reference chunk's CPU seconds on the reference host.
constexpr double kRefChunkS = 1.2e-3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = -1.0;
  int trace = -1;
  bool tiny = false;
  std::uint64_t prefix = 0;  // minimum timed units; --crosscheck's units
  Inject inject = Inject::kNone;
  std::string span_out;
  bool crosscheck = false;
  bool setup_only = false;
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload paper_read|write_read|campaign|"
               "data_plane --seed N --seconds S --trace 0|1 [--tiny]\n"
               "       [--prefix N] [--inject digest|decode]"
               " [--span-out PATH] [--crosscheck] [--setup-only]\n",
               why);
  return 2;
}

bool parseUnsigned(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  out = std::strtoull(text, &end, 10);
  return end != nullptr && *end == '\0';
}

/// Returns 0 on success, else the exit code.
int parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    const auto number = [&] {
      if (!parseUnsigned(v, n)) return false;
      ++i;
      return true;
    };
    if (a == "--workload" && v != nullptr) {
      o.workload = v;
      ++i;
    } else if (a == "--seed" && number()) {
      o.seed = n;
    } else if (a == "--seconds" && v != nullptr) {
      char* end = nullptr;
      o.seconds = std::strtod(v, &end);
      if (end == v || *end != '\0' || !(o.seconds >= 0.0)) {
        return usage("bad --seconds");
      }
      ++i;
    } else if (a == "--trace" && number() && n <= 1) {
      o.trace = static_cast<int>(n);
    } else if (a == "--tiny") {
      o.tiny = true;
    } else if (a == "--prefix" && number() && n >= 1) {
      o.prefix = n;
    } else if (a == "--inject" && v != nullptr) {
      const std::string what = v;
      ++i;
      if (what == "digest") {
        o.inject = Inject::kDigest;
      } else if (what == "decode") {
        o.inject = Inject::kDecode;
      } else {
        return usage("bad --inject");
      }
    } else if (a == "--span-out" && v != nullptr) {
      o.span_out = v;
      ++i;
    } else if (a == "--crosscheck") {
      o.crosscheck = true;
    } else if (a == "--setup-only") {
      o.setup_only = true;
    } else {
      return usage(("bad argument '" + a + "'").c_str());
    }
  }
  if (o.workload.empty() || o.seconds < 0.0 || o.trace < 0) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  return 0;
}

/// The units a phase ran, sorted by index, with the phase's host cost.
struct Phase {
  std::vector<Outcome> outcomes;
  std::vector<SpanLog> logs;
  double wall_s = 0.0;
  /// Reference chunks of the timed phase: CPU seconds of each, and how
  /// many units had run before it.
  std::vector<double> ref_s;
  std::vector<std::size_t> ref_pos;
  rusage before{};
  rusage after{};
};

/// Closed loop over `workers` threads: each takes the next unit as soon as
/// its previous unit returned. With `list`, the units are exactly its
/// entries. Otherwise they are 0, 1, 2, ...: the first `min_units` always
/// run, later ones start only before the deadline (none if `seconds` < 0).
/// With `ref` (one worker), a reference chunk runs after the unit that
/// ends each kRefEveryNs of the worker's CPU time.
Phase runPhase(Workload& wl, unsigned workers,
               const std::vector<std::uint64_t>* list, std::uint64_t min_units,
               double seconds, bool traced, ReferenceWork* ref = nullptr) {
  Phase ph;
  ph.logs.resize(traced ? workers : 0);
  std::vector<std::vector<Outcome>> per_worker(workers);
  // Room for every unit a timed phase reaches, so that the outcome records
  // grow page by page instead of doubling and copying: a doubling would
  // step peak_rss_mb up by megabytes at a unit count the host's speed sets.
  if (seconds >= 0.0) {
    for (auto& v : per_worker) v.reserve(kTimedUnitsReserved);
  }
  std::atomic<std::uint64_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  getrusage(RUSAGE_SELF, &ph.before);
  const std::int64_t t0 = nowNs();
  const std::int64_t deadline =
      t0 + static_cast<std::int64_t>(std::max(seconds, 0.0) * 1e9);
  {
    std::vector<std::thread> threads;
    for (unsigned w = 0; w < workers; ++w) {
      threads.emplace_back([&, w] {
        std::int64_t last_ref = threadCpuNs();
        try {
          SpanLog* log = traced ? &ph.logs[w] : nullptr;
          for (;;) {
            const std::uint64_t pos = next.fetch_add(1);
            if (list != nullptr ? pos >= list->size()
                                : pos >= min_units &&
                                      (seconds < 0.0 || nowNs() >= deadline)) {
              break;
            }
            per_worker[w].push_back(
                wl.run(list != nullptr ? (*list)[pos] : pos, log));
            if (ref != nullptr && threadCpuNs() - last_ref >= kRefEveryNs) {
              ph.ref_s.push_back(ref->runChunk());
              ph.ref_pos.push_back(per_worker[w].size());
              last_ref = threadCpuNs();
            }
          }
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          next.store(~std::uint64_t{0} >> 1);
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  ph.wall_s = secondsSince(t0);
  getrusage(RUSAGE_SELF, &ph.after);
  if (error) std::rethrow_exception(error);
  for (auto& v : per_worker) {
    for (auto& o : v) ph.outcomes.push_back(std::move(o));
  }
  std::sort(ph.outcomes.begin(), ph.outcomes.end(),
            [](const Outcome& a, const Outcome& b) { return a.index < b.index; });
  return ph;
}

/// Host speed at each timed unit against the reference host: the reference
/// chunk time of the reference host over the median of the 2 * kRefWindow + 1
/// chunks around the unit. One worker runs the timed phase, so its units ran
/// in index order.
std::vector<double> speedFactors(const Phase& ph) {
  std::vector<double> f(ph.outcomes.size(), 1.0);
  if (ph.ref_s.empty()) return f;
  std::size_t j = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    while (j + 1 < ph.ref_pos.size() && ph.ref_pos[j] <= i) ++j;
    const std::size_t lo = j >= kRefWindow ? j - kRefWindow : 0;
    const std::size_t hi = std::min(ph.ref_s.size(), j + kRefWindow + 1);
    f[i] = kRefChunkS /
           median(std::vector<double>(ph.ref_s.begin() + static_cast<std::ptrdiff_t>(lo),
                                      ph.ref_s.begin() + static_cast<std::ptrdiff_t>(hi)));
  }
  return f;
}

std::uint64_t digestOf(const std::vector<Outcome>& outcomes, std::size_t n) {
  Digest d;
  for (std::size_t i = 0; i < n && i < outcomes.size(); ++i) {
    d.add(outcomes[i].index);
    d.add(outcomes[i].digest);
  }
  return d.value();
}

/// The outcomes of `units`: taken from the timed phase where it reached
/// them (it ran units 0..n-1), the rest run now, untimed and untraced.
std::vector<Outcome> outcomesOf(Workload& wl,
                                const std::vector<std::uint64_t>& units,
                                const Phase& main) {
  std::vector<std::uint64_t> missing;
  for (const auto u : units) {
    if (u >= main.outcomes.size()) missing.push_back(u);
  }
  const Phase extra = runPhase(wl, 2, &missing, 0, -1.0, false);
  std::vector<Outcome> out;
  std::size_t next_extra = 0;
  for (const auto u : units) {
    out.push_back(u < main.outcomes.size() ? main.outcomes[u]
                                           : extra.outcomes[next_extra++]);
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

double tvSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// One scheme's §6.2.3 metrics over the first n outcomes: mean bandwidth,
/// latency standard deviation and mean I/O overhead. Campaign units carry
/// a whole campaign each: bandwidth is its system throughput.
struct SimResult {
  double bw_mbps = 0.0;
  double latency_sd_s = 0.0;
  double io_overhead = 0.0;
};

SimResult simMetrics(const std::vector<Outcome>& outcomes, std::uint64_t n,
                     SchemeKind kind, bool campaign) {
  SimResult r;
  if (!campaign) {
    robustore::metrics::AccessAggregate agg;
    for (std::uint64_t i = 0; i < n && i < outcomes.size(); ++i) {
      if (outcomes[i].kind == kind) agg.add(outcomes[i].access);
    }
    r.bw_mbps = agg.meanBandwidthMBps();
    r.latency_sd_s = agg.latencyStdDev();
    r.io_overhead = agg.meanIoOverhead();
    return r;
  }
  double count = 0.0;
  for (std::uint64_t i = 0; i < n && i < outcomes.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (o.kind != kind) continue;
    r.bw_mbps += o.system_throughput_mbps;
    r.latency_sd_s += o.aggregate.latencyStdDev();
    r.io_overhead += o.aggregate.meanIoOverhead();
    count += 1.0;
  }
  if (count > 0.0) {
    r.bw_mbps /= count;
    r.latency_sd_s /= count;
    r.io_overhead /= count;
  }
  return r;
}

void writeSpans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write spans to %s\n", path.c_str());
    return;
  }
  // Chrome trace_event format; one track per worker. Capped so a long
  // traced campaign stays a readable file.
  constexpr std::size_t kMaxSpans = 50'000;
  std::int64_t origin = INT64_MAX;
  for (const auto& log : logs) {
    for (const auto& s : log.spans()) origin = std::min(origin, s.start_ns);
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  std::size_t written = 0;
  for (std::size_t w = 0; w < logs.size(); ++w) {
    const auto& spans = logs[w].spans();
    for (std::size_t i = 0; i < spans.size() && written < kMaxSpans; ++i) {
      const Span& s = spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %zu, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"access\": %llu, \"span\": %zu, \"parent\": %d}}",
                   written == 0 ? "" : ",\n", s.name, w,
                   static_cast<double>(s.start_ns - origin) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   static_cast<unsigned long long>(s.access), i, s.parent);
      ++written;
    }
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
}

void perLayerMetrics(MetricTable& mt, Workload& wl, const Options& opt,
                     const Phase& main, const Phase& gate,
                     std::uint64_t gate_n) {
  const bool campaign = std::string(wl.name()) == "campaign";
  SpanSummary spans;
  for (const auto& log : main.logs) spans.add(log);

  LayerCounters c;
  double attempted = 0.0;
  double blocks = 0.0;
  double reception = 0.0;
  double reissues = 0.0;
  double failures = 0.0;
  double time_lost = 0.0;
  double symbols = 0.0;
  double xors = 0.0;
  for (const auto& o : main.outcomes) {
    c.add(o.counters);
    const auto n = static_cast<double>(o.attempted);
    attempted += n;
    if (campaign) {
      const double over = o.aggregate.meanReceptionOverhead();
      blocks += n * o.k * (1.0 + over);
      reception += n * over;
      reissues += n * o.aggregate.meanReissuedRequests();
      failures += n * o.aggregate.meanFailuresSurvived();
      time_lost += n * o.aggregate.meanTimeLostToFailures();
    } else {
      blocks += o.access.blocks_received;
      reception += o.access.receptionOverhead();
      reissues += o.access.reissued_requests;
      failures += o.access.failures_survived;
      time_lost += o.access.time_lost_to_failures;
    }
    symbols += o.symbols_fed;
    xors += static_cast<double>(o.xor_ops);
  }

  mt.set("client.cluster_build_ms", spans.p50Ms("client.Cluster"), "ms");
  mt.set("client.plan_ms", spans.p50Ms("client.planFile"), "ms");
  mt.set("client.read_ms",
         spans.p50Ms(campaign ? "client.beginRead" : "client.read"), "ms");
  mt.set("client.write_ms", spans.p50Ms("client.write"), "ms");
  mt.set("client.redraw_ms", spans.p50Ms("client.redrawLayouts"), "ms");
  for (const auto kind : kSchemes) {
    std::vector<double> ms;
    double bw = 0.0;
    double count = 0.0;
    for (const auto& o : main.outcomes) {
      if (o.kind != kind) continue;
      ms.push_back(1e3 * o.host_s / static_cast<double>(o.attempted));
      bw += campaign ? o.system_throughput_mbps : o.access.bandwidthMBps();
      count += 1.0;
    }
    const std::string key = std::string("client.") + schemeKey(kind);
    mt.set(key + ".host_ms_p50", median(ms), "ms");
    mt.set(key + ".sim_bw_mbps", ratio(bw, count), "sim_MB/s");
  }
  mt.set("client.blocks_per_access", ratio(blocks, attempted), "count");
  mt.set("client.reception_overhead", ratio(reception, attempted), "ratio");

  const auto events = static_cast<double>(c.events_fired);
  mt.set("sim.events_per_access", ratio(events, attempted), "count");
  mt.set("sim.cancelled_share",
         ratio(static_cast<double>(c.events_cancelled),
               static_cast<double>(c.events_scheduled)),
         "ratio");
  mt.set("sim.peak_live_events", static_cast<double>(c.peak_live), "count");
  mt.set("sim.overflow_share",
         ratio(static_cast<double>(c.events_overflow),
               static_cast<double>(c.events_scheduled)),
         "ratio");
  const double sim_wall =
      campaign ? spans.totalS("sim.runUntil") + spans.totalS("sim.run")
               : spans.totalS("client.read") + spans.totalS("client.write");
  mt.set("sim.host_ns_per_event", 1e9 * ratio(sim_wall, events), "ns");

  std::fprintf(stderr, "perfbench: recording request shapes\n");
  Shapes shapes = wl.recordShapes();
  shapes.peak_live = c.peak_live;
  std::fprintf(stderr, "perfbench: running layer micro-drivers\n");
  const LayerTimings lt = runLayerDrivers(
      shapes, opt.seed, std::string(wl.name()) == "data_plane");
  mt.set("sim.dispatch_ns", lt.dispatch_ns, "ns");
  mt.set("disk.submit_complete_ns", lt.submit_complete_ns, "ns");
  mt.set("disk.cancel_stream_us", lt.cancel_stream_us, "us");
  const double busy = c.disk_fg_busy_s + c.disk_bg_busy_s;
  mt.set("disk.fg_mb_per_access", ratio(c.disk_fg_bytes * 1e-6, attempted),
         "MB");
  mt.set("disk.busy_s_per_access", ratio(busy, attempted), "sim_s");
  mt.set("workload.bg_busy_share", ratio(c.disk_bg_busy_s, busy), "ratio");
  mt.set("workload.bg_mb_per_access", ratio(c.disk_bg_bytes * 1e-6, attempted),
         "MB");
  mt.set("server.read_forward_ns", lt.read_forward_ns, "ns");
  mt.set("server.write_ns", lt.write_ns, "ns");
  mt.set("net.reserve_send_ns", lt.reserve_send_ns, "ns");
  mt.set("server.network_mb_per_access",
         ratio(c.server_network_bytes * 1e-6, attempted), "MB");
  mt.set("net.link_mb_per_access", ratio(c.link_bytes * 1e-6, attempted), "MB");

  mt.set("coding.lt_id_decode_us", lt.lt_id_decode_us, "us");
  mt.set("coding.data_decode_gbps", lt.data_decode_gbps, "GB/s");
  mt.set("coding.encode_block_gbps", lt.encode_block_gbps, "GB/s");
  mt.set("coding.xor_gbps", lt.xor_gbps, "GB/s");
  mt.set("coding.symbols_per_access", ratio(symbols, attempted), "count");
  mt.set("coding.xor_ops_per_access", ratio(xors, attempted), "count");

  mt.set("fault.reissues_per_access", ratio(reissues, attempted), "count");
  mt.set("fault.failures_per_access", ratio(failures, attempted), "count");
  mt.set("fault.time_lost_s", ratio(time_lost, attempted), "sim_s");

  const auto hp = HostProfiler::globalSnapshot();
  const auto share = [&](HostScope s) {
    return ratio(hp.scopeSeconds(s), hp.wall_seconds);
  };
  mt.set("telemetry.dispatch_self_share", share(HostScope::kEngineDispatch),
         "ratio");
  mt.set("telemetry.disk_service_self_share", share(HostScope::kDiskService),
         "ratio");
  mt.set("telemetry.decode_self_share", share(HostScope::kDecode), "ratio");
  mt.set("telemetry.xor_self_share", share(HostScope::kXorKernel), "ratio");
  mt.set("telemetry.unattributed_share",
         hp.wall_seconds > 0.0
             ? 1.0 - hp.totalScopeSeconds() / hp.wall_seconds
             : 0.0,
         "ratio");

  const double user =
      tvSeconds(main.after.ru_utime) - tvSeconds(main.before.ru_utime);
  const double sys =
      tvSeconds(main.after.ru_stime) - tvSeconds(main.before.ru_stime);
  mt.set("host.sys_share", ratio(sys, user + sys), "ratio");
  mt.set("host.minor_faults_per_access",
         ratio(static_cast<double>(main.after.ru_minflt - main.before.ru_minflt),
               attempted),
         "count");

  const SpanSummary::Entry* r = spans.find(
      campaign ? "core.MultiClientExperiment.run" : "core.runTrial");
  mt.set("core.harness_share", r != nullptr ? ratio(r->self_s, r->total_s) : 0.0,
         "ratio");
  // Traced host time of the gate units against their untraced re-run.
  std::vector<double> traced_ms;
  std::vector<double> plain_ms;
  for (std::uint64_t i = 0; i < gate_n && i < main.outcomes.size() &&
                            i < gate.outcomes.size();
       ++i) {
    traced_ms.push_back(main.outcomes[i].host_s);
    plain_ms.push_back(gate.outcomes[i].host_s);
  }
  mt.set("bench.trace_overhead_share",
         ratio(median(traced_ms), median(plain_ms)) - 1.0, "ratio");
}

void endToEndMetrics(MetricTable& mt, Workload& wl, double setup_s,
                     const Phase& main, const SimResult& sim) {
  const bool data_plane = std::string(wl.name()) == "data_plane";
  const std::vector<double> speed = speedFactors(main);
  double completed = 0.0;
  double bytes = 0.0;
  double access_s = 0.0;  // host seconds of the units, at reference speed
  double decode_s = 0.0;  // host seconds behind decode_gbps, likewise
  double raw_s = 0.0;     // host seconds of the units, as measured
  std::vector<double> wall_ms;
  std::vector<double> ms[std::size(kSchemes)];
  for (std::size_t i = 0; i < main.outcomes.size(); ++i) {
    const Outcome& o = main.outcomes[i];
    completed += static_cast<double>(o.completed);
    wall_ms.push_back(1e3 * o.wall_s / static_cast<double>(o.attempted));
    access_s += speed[i] * o.host_s;
    raw_s += o.host_s;
    ms[static_cast<std::size_t>(o.kind)].push_back(
        1e3 * speed[i] * o.host_s / static_cast<double>(o.attempted));
    if (data_plane) {
      if (o.completed == 1 && o.unverified == 0) bytes += o.data_bytes;
      decode_s += speed[i] * o.read_host_s;
    } else {
      bytes += o.data_bytes;
      decode_s += speed[i] * o.host_s;
    }
  }
  // The figures as measured go to stderr for comparison.
  std::fprintf(stderr,
               "perfbench: reference chunk %.4g ms (median of %zu); "
               "as measured: accesses_per_s %.4g by CPU time, %.4g by wall "
               "clock; access ms p50 %.4g p95 %.4g by wall clock\n",
               1e3 * median(main.ref_s), main.ref_s.size(),
               ratio(completed, raw_s), ratio(completed, main.wall_s),
               quantile(wall_ms, 0.50), quantile(wall_ms, 0.95));
  // Host time per access, quantile by quantile: each scheme's own quantile,
  // averaged over the schemes the workload runs. The schemes' costs differ
  // by up to 10x, so a quantile of the pooled units would fall between two
  // schemes' clusters and jump with the last unit's scheme.
  const auto perScheme = [&](double q) {
    double sum = 0.0;
    double schemes = 0.0;
    for (const auto& v : ms) {
      if (v.empty()) continue;
      sum += quantile(v, q);
      schemes += 1.0;
    }
    return ratio(sum, schemes);
  };
  mt.set("setup_s", setup_s, "s");
  mt.set("accesses_per_s", ratio(completed, access_s), "1/s");
  mt.set("access_host_ms_p50", perScheme(0.50), "ms");
  mt.set("access_host_ms_p95", perScheme(0.95), "ms");
  mt.set("decode_gbps", ratio(bytes * 1e-9, decode_s), "GB/s");
  mt.set("peak_rss_mb", static_cast<double>(main.after.ru_maxrss) / 1024.0,
         "MB");
  mt.set("sim_bw_mbps", sim.bw_mbps, "sim_MB/s");
  mt.set("sim_latency_sd_s", sim.latency_sd_s, "sim_s");
  mt.set("sim_io_overhead", sim.io_overhead, "ratio");
}

/// Runs `self --setup-only` for the workload of `o` as a fresh process and
/// returns the set-up seconds it prints.
double coldSetUpSeconds(const char* self, const Options& o) {
  const std::string seed = std::to_string(o.seed);
  std::vector<const char*> args = {self,     "--workload", o.workload.c_str(),
                                   "--seed", seed.c_str(), "--seconds",
                                   "0",      "--trace",    "0",
                                   "--setup-only"};
  if (o.tiny) args.push_back("--tiny");
  args.push_back(nullptr);
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(self, const_cast<char* const*>(args.data()));
    _exit(127);
  }
  close(fds[1]);
  std::string out;
  char buf[128];
  for (ssize_t n; (n = read(fds[0], buf, sizeof buf)) > 0;) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  if (pid < 0 || waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0 || out.empty()) {
    throw std::runtime_error("set-up process failed");
  }
  return std::stod(out);
}

/// `self` is this program's path.
int run(const Options& opt, const char* self) {
  auto wl = makeWorkload(opt.workload, opt.seed, opt.tiny, opt.inject);
  if (wl == nullptr) return usage(("unknown workload '" + opt.workload + "'").c_str());
  const bool traced = opt.trace == 1;
  const std::uint64_t gate_n = wl->gatePrefix();

  if (opt.setup_only) {
    // CPU time of the whole process so far: loading, static initialisation
    // and main() up to the end of set-up. Set-up is single-threaded.
    wl->setUp();
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    std::printf("%.9f\n", static_cast<double>(ts.tv_sec) +
                              static_cast<double>(ts.tv_nsec) * 1e-9);
    return 0;
  }
  // Cold set-ups, each in a fresh process so that the process's one-time
  // costs (SIMD probe, first-touch faults, lazily built tables) count.
  // Reference chunks run before each, and the median set-up is scaled to
  // the reference host by the median chunk. Only the second of two chunks
  // counts: the first runs on caches the previous set-up has flushed.
  ReferenceWork ref;
  std::vector<double> setups;
  std::vector<double> setup_ref;
  for (int r = 0; r < kColdSetUps && !traced; ++r) {
    (void)ref.runChunk();
    setup_ref.push_back(ref.runChunk());
    setups.push_back(coldSetUpSeconds(self, opt));
  }
  if (!traced) {
    std::fprintf(stderr, "perfbench: set-up %.4g ms as measured, reference "
                 "chunk %.4g ms\n", 1e3 * median(setups),
                 1e3 * median(setup_ref));
  }
  wl->setUp();
  wl->warmUp();
  if (traced) HostProfiler::resetGlobal();

  std::fprintf(stderr, "perfbench: %s seed %llu, %u worker(s), %.1f s%s\n",
               wl->name(), static_cast<unsigned long long>(opt.seed), kWorkers,
               opt.seconds, traced ? ", traced" : "");
  Phase main = runPhase(*wl, kWorkers, nullptr, std::max(opt.prefix, gate_n),
                        opt.crosscheck ? -1.0 : opt.seconds, traced,
                        traced ? nullptr : &ref);
  // The simulated results come from a fixed set of RobuSTore units, so they
  // repeat exactly for a seed however far the timed phase got.
  const std::vector<Outcome> sim_units = outcomesOf(*wl, wl->simUnits(), main);

  // Correctness gate: the first units again, tracing flipped, at another
  // worker count. An untraced gate leaves the host profile untouched.
  std::fprintf(stderr, "perfbench: gate re-runs %llu unit(s) %s on %u worker(s)\n",
               static_cast<unsigned long long>(gate_n),
               traced ? "untraced" : "traced", kGateWorkers);
  Phase gate = runPhase(*wl, kGateWorkers, nullptr, gate_n, -1.0, !traced);
  std::uint64_t gate_digest = digestOf(gate.outcomes, gate_n);
  if (opt.inject == Inject::kDigest) gate_digest ^= 1;
  const std::uint64_t main_gate_digest = digestOf(main.outcomes, gate_n);
  const std::uint64_t digest = digestOf(sim_units, sim_units.size());

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto& o : main.outcomes) {
    attempted += o.attempted;
    failed += (o.attempted - o.completed) + o.unverified;
  }
  bool correct = true;
  for (const auto& o : sim_units) {
    if (o.completed != o.attempted || o.unverified != 0) {
      std::fprintf(stderr, "perfbench: unit %llu failed or did not verify\n",
                   static_cast<unsigned long long>(o.index));
      correct = false;
    }
  }
  if (gate_digest != main_gate_digest) {
    std::fprintf(stderr,
                 "perfbench: DIGEST MISMATCH over the first %llu unit(s): "
                 "%s (%s) vs %s (%s)\n",
                 static_cast<unsigned long long>(gate_n),
                 hex(main_gate_digest).c_str(), traced ? "traced" : "untraced",
                 hex(gate_digest).c_str(), traced ? "untraced" : "traced");
    correct = false;
  }
  if (failed != 0) {
    std::fprintf(stderr,
                 "perfbench: %llu of %llu accesses failed or did not verify\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted));
    correct = false;
  }
  std::fprintf(stderr,
               "perfbench: digest %s over %zu RobuSTore unit(s), %zu unit(s) "
               "timed\n",
               hex(digest).c_str(), sim_units.size(), main.outcomes.size());
  for (const auto kind : kSchemes) {
    std::vector<double> ms;
    std::uint64_t bad = 0;
    for (const auto& o : main.outcomes) {
      if (o.kind != kind) continue;
      ms.push_back(1e3 * o.host_s);
      bad += (o.attempted - o.completed) + o.unverified;
    }
    if (ms.empty()) continue;
    std::fprintf(stderr,
                 "perfbench:   %-9s %5zu unit(s), %llu failed, host ms p50 "
                 "%.3f max %.3f\n",
                 schemeKey(kind), ms.size(),
                 static_cast<unsigned long long>(bad), median(ms),
                 *std::max_element(ms.begin(), ms.end()));
  }
  std::printf("digest %s\n", hex(digest).c_str());

  const bool campaign = std::string(wl->name()) == "campaign";
  if (opt.crosscheck) {
    for (const auto kind : kSchemes) {
      if (campaign) {
        for (const auto& o : main.outcomes) {
          if (o.index >= 4 || o.kind != kind) continue;
          std::printf("crosscheck %s events_fired=%llu peak_live=%llu "
                      "accesses_completed=%llu\n",
                      robustore::client::schemeName(kind),
                      static_cast<unsigned long long>(o.events_fired),
                      static_cast<unsigned long long>(o.peak_live_events),
                      static_cast<unsigned long long>(o.completed));
        }
      } else {
        const SimResult s = simMetrics(main.outcomes, opt.prefix, kind, false);
        std::printf("crosscheck %s bandwidth_mbps=%.6g latency_stddev_s=%.6g "
                    "io_overhead=%.6g\n",
                    robustore::client::schemeName(kind), s.bw_mbps,
                    s.latency_sd_s, s.io_overhead);
      }
    }
  }

  MetricTable mt;
  if (traced) {
    perLayerMetrics(mt, *wl, opt, main, gate, gate_n);
    if (!opt.span_out.empty()) writeSpans(opt.span_out, main.logs);
  } else {
    const SimResult sim =
        simMetrics(sim_units, sim_units.size(), SchemeKind::kRobuStore,
                   campaign);
    endToEndMetrics(mt, *wl, median(setups) * kRefChunkS / median(setup_ref),
                    main, sim);
    mt.set("complete_share",
           1.0 - ratio(static_cast<double>(failed),
                       static_cast<double>(attempted)),
           "ratio");
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), mt.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

std::string MetricTable::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const double v = std::isfinite(rows_[i].value) ? rows_[i].value : 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + rows_[i].name + "\": {\"value\": " +
           buf + ", \"unit\": \"" + rows_[i].unit + "\"}";
  }
  return out + "}";
}

}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opt;
  if (const int rc = perfbench::parse(argc, argv, opt); rc != 0) return rc;
  try {
    return perfbench::run(opt, argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
