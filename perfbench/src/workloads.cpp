#include "workloads.hpp"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>

#include "client/cluster.hpp"
#include "client/robustore_scheme.hpp"
#include "coding/lt_codec.hpp"
#include "coding/simd_dispatch.hpp"
#include "common/rng.hpp"
#include "core/experiment.hpp"
#include "core/multi_client.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "telemetry/host_profiler.hpp"
#include "trace/trace.hpp"

namespace perfbench {
namespace {

using namespace robustore;
using client::SchemeKind;

constexpr std::uint64_t kGolden = 0x9e3779b97f4a7c15ULL;

/// Units t * stride + stride - 1 for t < count: the RobuSTore units of a
/// workload whose units cycle through `stride` schemes, RobuSTore last.
std::vector<std::uint64_t> robustoreUnits(std::uint64_t count,
                                          std::uint64_t stride) {
  std::vector<std::uint64_t> units;
  for (std::uint64_t t = 0; t < count; ++t) {
    units.push_back(t * stride + stride - 1);
  }
  return units;
}

void digestAccess(Digest& d, const metrics::AccessMetrics& m) {
  d.add(m.latency);
  d.add(static_cast<std::uint64_t>(m.data_bytes));
  d.add(static_cast<std::uint64_t>(m.network_bytes));
  d.add(static_cast<std::uint64_t>(m.blocks_received));
  d.add(static_cast<std::uint64_t>(m.blocks_original));
  d.add(static_cast<std::uint64_t>(m.cache_hits));
  d.add(static_cast<std::uint64_t>(m.complete));
  d.add(static_cast<std::uint64_t>(m.failures_survived));
  d.add(static_cast<std::uint64_t>(m.reissued_requests));
  d.add(m.time_lost_to_failures);
}

void digestAggregate(Digest& d, const metrics::AccessAggregate& a) {
  d.add(static_cast<std::uint64_t>(a.trials()));
  d.add(static_cast<std::uint64_t>(a.incompleteCount()));
  d.add(a.meanBandwidthMBps());
  d.add(a.meanLatency());
  d.add(a.latencyStdDev());
  d.add(a.meanIoOverhead());
  d.add(a.meanReceptionOverhead());
  d.add(a.meanReissuedRequests());
}

/// Reads the per-layer counters of a finished testbed through public
/// accessors only.
LayerCounters readCounters(client::Cluster& cluster, const sim::Engine& engine) {
  LayerCounters c;
  const auto& st = engine.stats();
  c.events_scheduled = st.scheduled;
  c.events_fired = st.fired;
  c.events_cancelled = st.cancelled;
  c.events_overflow = st.overflow_scheduled;
  c.peak_live = st.peak_live;
  for (std::uint32_t d = 0; d < cluster.numDisks(); ++d) {
    const disk::Disk& disk = cluster.disk(d);
    c.disk_fg_bytes +=
        static_cast<double>(disk.bytesServed(disk::Priority::kForeground));
    c.disk_bg_bytes +=
        static_cast<double>(disk.bytesServed(disk::Priority::kBackground));
    c.disk_fg_busy_s += disk.busyTime(disk::Priority::kForeground);
    c.disk_bg_busy_s += disk.busyTime(disk::Priority::kBackground);
  }
  for (std::uint32_t s = 0; s < cluster.numServers(); ++s) {
    auto& srv = cluster.server(s);
    c.server_network_bytes += static_cast<double>(srv.networkBytesTotal());
    c.link_bytes += static_cast<double>(srv.link().bytesSent());
  }
  if (const net::Link* down = cluster.clientLink(); down != nullptr) {
    c.link_bytes += static_cast<double>(down->bytesSent());
  }
  return c;
}

client::ClusterConfig trialCluster(const core::ExperimentConfig& cfg) {
  client::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server.disks_per_server = cfg.disks_per_server;
  cc.server.disk_params = cfg.disk_params;
  cc.server.cache = cfg.cache;
  cc.server.round_trip = cfg.round_trip;
  cc.server.nic_bandwidth = cfg.nic_bandwidth;
  cc.client_bandwidth = cfg.client_bandwidth;
  return cc;
}

// ---------------------------------------------------------------------------
// One independent trial, decomposed into the public calls
// core::ExperimentRunner::runTrial makes, so each call can carry a span.
// Seeds follow runTrial's conventions exactly; the correctness gate checks
// that this path and runTrial produce identical simulated outputs.

struct TrialOptions {
  SpanLog* log = nullptr;
  std::uint64_t index = 0;
  /// Simulator tracer to attach (shape recording only).
  trace::Tracer* tracer = nullptr;
  /// Real-bytes data plane source (RobuSTore reads only).
  std::shared_ptr<const std::vector<std::uint8_t>> data;
};

struct TrialResult {
  metrics::AccessMetrics m;
  client::StoredFile file;
  LayerCounters counters;
  std::optional<client::RobuStoreScheme::DataPlaneReport> report;
  double read_host_s = 0.0;
};

TrialResult runTrialParts(const core::ExperimentConfig& cfg, SchemeKind kind,
                          std::uint32_t trial, const TrialOptions& opt) {
  SpanLog* log = opt.log;
  const std::uint64_t a = opt.index;
  TrialResult out;
  // The traced run profiles every unit with the simulator's own host
  // profiler; the untraced run leaves it off.
  const telemetry::HostProfiler::TrialGuard profile(log != nullptr);
  const Scoped root(log, "core.runTrial", a);

  sim::Engine engine;
  std::optional<client::Cluster> cluster_slot;
  {
    const Scoped s(log, "client.Cluster", a);
    cluster_slot.emplace(engine, trialCluster(cfg), Rng(cfg.seed ^ 0xc1u));
  }
  client::Cluster& cluster = *cluster_slot;
  if (cfg.background != core::ExperimentConfig::Background::kNone &&
      cfg.background != core::ExperimentConfig::Background::kHeterogeneous) {
    throw std::logic_error("perfbench: unsupported background mode");
  }
  std::unique_ptr<client::Scheme> scheme;
  {
    const Scoped s(log, "client.makeScheme", a);
    scheme = client::makeScheme(kind, cluster, cfg.lt, cfg.codec);
  }
  if (opt.data != nullptr) {
    const Scoped s(log, "client.attachDataPlane", a);
    static_cast<client::RobuStoreScheme&>(*scheme).attachDataPlane(
        {.data = opt.data, .streaming = true});
  }
  if (opt.tracer != nullptr) cluster.attachTracer(opt.tracer);

  Rng trial_rng(cfg.seed * kGolden + trial + 1);
  if (cfg.background == core::ExperimentConfig::Background::kHeterogeneous) {
    const Scoped s(log, "workload.randomizeBackground", a);
    cluster.randomizeBackground(cfg.bg_interval_min, cfg.bg_interval_max,
                                trial_rng);
  }
  std::vector<std::uint32_t> disks;
  {
    const Scoped s(log, "client.selectDisks", a);
    disks = cluster.selectDisks(cfg.disks_per_access, trial_rng);
  }
  std::optional<fault::FaultInjector> injector;
  if (cfg.faults.enabled()) {
    const Scoped s(log, "fault.arm", a);
    if (!cfg.faults.scripted.empty() || cfg.faults.churn.enabled()) {
      throw std::logic_error("perfbench: only stochastic fault models");
    }
    std::vector<std::uint32_t> roster = disks;
    injector.emplace(engine, [&cluster, roster = std::move(roster)](
                                 std::uint32_t i) -> disk::Disk& {
      return cluster.disk(roster[i % roster.size()]);
    });
    Rng rng((cfg.seed ^ 0xFA17FA17u) * kGolden + trial + 1);
    injector->scheduleAll(fault::FaultInjector::drawSchedule(
        cfg.faults.model, static_cast<std::uint32_t>(disks.size()), rng));
    if (opt.tracer != nullptr) injector->setTracer(opt.tracer);
  }

  const auto timedRead = [&] {
    const Scoped s(log, "client.read", a);
    const std::int64_t t0 = threadCpuNs();
    out.m = scheme->read(out.file, cfg.access);
    out.read_host_s = cpuSecondsSince(t0);
  };
  switch (cfg.op) {
    case core::ExperimentConfig::Op::kRead: {
      {
        const Scoped s(log, "client.planFile", a);
        out.file = scheme->planFile(cfg.access, disks, cfg.layout, trial_rng);
      }
      timedRead();
      break;
    }
    case core::ExperimentConfig::Op::kWrite: {
      const Scoped s(log, "client.write", a);
      out.m = scheme->write(cfg.access, disks, cfg.layout, trial_rng);
      break;
    }
    case core::ExperimentConfig::Op::kReadAfterWrite: {
      metrics::AccessMetrics wm;
      {
        const Scoped s(log, "client.write", a);
        wm = scheme->write(cfg.access, disks, cfg.layout, trial_rng,
                           &out.file);
      }
      if (!wm.complete) {
        out.m = wm;
        break;
      }
      if (cfg.redraw_layout_after_write) {
        const Scoped s(log, "client.redrawLayouts", a);
        out.file.redrawLayouts(cfg.layout, trial_rng);
      }
      timedRead();
      break;
    }
  }
  if (opt.data != nullptr) {
    out.report =
        static_cast<client::RobuStoreScheme&>(*scheme).dataPlaneReport();
  }
  if (log != nullptr) out.counters = readCounters(cluster, engine);
  return out;
}

/// Reconstructs the order in which a RobuSTore read's coded blocks reached
/// the client from the simulator's trace: each server forwards its disks'
/// completions through one FIFO NIC, so the k-th disk transfer of the read
/// stream on a server pairs with the k-th network transfer of that
/// server, and a disk serves its placement's stored blocks in order.
std::vector<std::uint32_t> arrivalOrder(const trace::Tracer& tracer,
                                        const client::StoredFile& file,
                                        std::uint32_t disks_per_server) {
  std::uint64_t stream = 0;
  for (const auto& r : tracer.records()) {
    if (std::string_view(r.name) == "client.access") stream = r.access;
  }
  std::map<std::uint32_t, std::uint32_t> placement_of;
  for (std::uint32_t p = 0; p < file.placements.size(); ++p) {
    placement_of[file.placements[p].global_disk] = p;
  }
  std::map<std::uint32_t, std::deque<std::uint32_t>> disks_done;
  std::map<std::uint32_t, std::deque<SimTime>> nets_done;
  std::map<std::uint32_t, std::uint32_t> served;
  struct Arrival {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t coded;
  };
  std::vector<Arrival> arrivals;
  const auto pair = [&](std::uint32_t server) {
    auto& ds = disks_done[server];
    auto& ns = nets_done[server];
    while (!ds.empty() && !ns.empty()) {
      const std::uint32_t d = ds.front();
      ds.pop_front();
      const SimTime at = ns.front();
      ns.pop_front();
      const auto it = placement_of.find(d);
      if (it == placement_of.end()) continue;
      const auto& stored = file.placements[it->second].stored;
      const std::uint32_t j = served[d]++;
      if (j < stored.size()) {
        arrivals.push_back(
            {at, arrivals.size(), static_cast<std::uint32_t>(stored[j])});
      }
    }
  };
  for (const auto& r : tracer.records()) {
    if (r.access != stream || r.instant || r.counter) continue;
    if (r.stage == static_cast<std::uint8_t>(trace::Stage::kDiskTransfer)) {
      const std::uint32_t server = r.disk / disks_per_server;
      disks_done[server].push_back(r.disk);
      pair(server);
    } else if (r.stage ==
                   static_cast<std::uint8_t>(trace::Stage::kNetTransfer) &&
               r.track >= trace::serverNicTrack(0)) {
      const std::uint32_t server = r.track - trace::serverNicTrack(0);
      nets_done[server].push_back(r.end);
      pair(server);
    }
  }
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [](const Arrival& x, const Arrival& y) {
                     return x.at != y.at ? x.at < y.at : x.seq < y.seq;
                   });
  std::vector<std::uint32_t> order;
  order.reserve(arrivals.size());
  for (const auto& x : arrivals) order.push_back(x.coded);
  return order;
}

/// Runs one traced RobuSTore access of `cfg` and records the request
/// shapes the layer micro-drivers replay.
Shapes shapesOf(const core::ExperimentConfig& cfg, std::uint32_t trial) {
  trace::Tracer tracer;
  TrialOptions opt;
  opt.tracer = &tracer;
  TrialResult r = runTrialParts(cfg, SchemeKind::kRobuStore, trial, opt);
  Shapes s;
  s.block_bytes = cfg.access.block_bytes;
  if (!r.file.placements.empty()) s.layout = r.file.placements.front().layout;
  s.graph = r.file.lt_graph;
  s.arrival_order = arrivalOrder(tracer, r.file, cfg.disks_per_server);
  return s;
}

Outcome accessOutcome(std::uint64_t index, SchemeKind kind,
                      const metrics::AccessMetrics& m) {
  Outcome o;
  o.index = index;
  o.kind = kind;
  o.k = m.blocks_original;
  o.attempted = 1;
  o.completed = m.complete ? 1 : 0;
  o.data_bytes = m.complete ? static_cast<double>(m.data_bytes) : 0.0;
  o.access = m;
  Digest d;
  d.add(static_cast<std::uint64_t>(kind));
  digestAccess(d, m);
  o.digest = d.value();
  return o;
}

// ---------------------------------------------------------------------------
// paper_read / write_read: independent runTrial accesses, all four schemes
// round-robin (unit i = scheme i % 4, trial i / 4).

class TrialWorkload : public Workload {
 public:
  /// `testbed_per_trial` gives every trial its own cluster seed. Without
  /// it all trials share the workload seed's testbed, as the figure benches
  /// do; with it, one testbed's quirks (its disks' and background
  /// generators' streams) stop setting the simulated results of a run.
  TrialWorkload(const char* name, core::ExperimentConfig cfg,
                bool testbed_per_trial, std::uint64_t sim_trials,
                std::uint64_t gate)
      : name_(name),
        cfg_(std::move(cfg)),
        testbed_per_trial_(testbed_per_trial),
        sim_trials_(sim_trials),
        gate_(gate) {}

  [[nodiscard]] const char* name() const override { return name_; }
  [[nodiscard]] std::vector<std::uint64_t> simUnits() const override {
    return robustoreUnits(sim_trials_, 4);
  }
  [[nodiscard]] std::uint64_t gatePrefix() const override { return gate_; }

  void setUp() override {
    // SIMD probe, config validation, then the first trial's testbed with
    // each scheme on it.
    coding::simd::refresh();
    const core::ExperimentRunner validated(cfg_);
    const core::ExperimentConfig cfg = configFor(0);
    sim::Engine engine;
    client::Cluster cluster(engine, trialCluster(cfg), Rng(cfg.seed ^ 0xc1u));
    for (const auto kind : kSchemes) {
      (void)client::makeScheme(kind, cluster, cfg.lt, cfg.codec);
    }
  }

  void warmUp() override {
    for (std::uint64_t i = 0; i < 4; ++i) (void)run(i, nullptr);
  }

  Outcome run(std::uint64_t index, SpanLog* log) override {
    const SchemeKind kind = kSchemes[index % 4];
    const auto trial = static_cast<std::uint32_t>(index / 4);
    const core::ExperimentConfig cfg = configFor(index);
    const std::int64_t t0 = nowNs();
    const std::int64_t c0 = threadCpuNs();
    if (log == nullptr) {
      const auto m = core::ExperimentRunner::runTrial(cfg, kind, trial);
      Outcome o = accessOutcome(index, kind, m);
      o.host_s = cpuSecondsSince(c0);
      o.wall_s = secondsSince(t0);
      return o;
    }
    TrialOptions opt;
    opt.log = log;
    opt.index = index;
    TrialResult r = runTrialParts(cfg, kind, trial, opt);
    Outcome o = accessOutcome(index, kind, r.m);
    o.host_s = cpuSecondsSince(c0);
    o.wall_s = secondsSince(t0);
    o.read_host_s = r.read_host_s;
    o.counters = r.counters;
    return o;
  }

  [[nodiscard]] core::ExperimentConfig configFor(std::uint64_t index) const {
    core::ExperimentConfig cfg = cfg_;
    if (testbed_per_trial_) cfg.seed = cfg_.seed + (index / 4) * kGolden;
    return cfg;
  }

  Shapes recordShapes() override { return shapesOf(configFor(0), 0); }

 private:
  const char* name_;
  core::ExperimentConfig cfg_;
  bool testbed_per_trial_;
  std::uint64_t sim_trials_;
  std::uint64_t gate_;
};

// ---------------------------------------------------------------------------
// data_plane: RobuSTore reads with the streaming real-bytes data plane.

class DataPlaneWorkload : public Workload {
 public:
  /// Units from here on are the same reads without the data plane. The
  /// data plane changes no simulated behaviour, so these give the simulated
  /// results from many more reads than a run has time to decode.
  static constexpr std::uint64_t kSimOnly = std::uint64_t{1} << 32;

  DataPlaneWorkload(core::ExperimentConfig cfg, std::uint64_t sim_reads,
                    Inject inject)
      : cfg_(std::move(cfg)), sim_reads_(sim_reads), inject_(inject) {}

  [[nodiscard]] const char* name() const override { return "data_plane"; }
  [[nodiscard]] std::vector<std::uint64_t> simUnits() const override {
    std::vector<std::uint64_t> units = robustoreUnits(sim_reads_, 1);
    for (auto& u : units) u += kSimOnly;
    return units;
  }
  [[nodiscard]] std::uint64_t gatePrefix() const override { return 4; }

  void setUp() override {
    coding::simd::refresh();
    // The file's original bytes, drawn from the workload seed.
    auto data = std::make_shared<std::vector<std::uint8_t>>(
        static_cast<std::size_t>(cfg_.access.dataBytes()));
    Rng rng(cfg_.seed ^ 0xda7aULL);
    std::size_t i = 0;
    for (; i + 8 <= data->size(); i += 8) {
      const std::uint64_t w = rng();
      std::memcpy(data->data() + i, &w, 8);
    }
    for (; i < data->size(); ++i) {
      (*data)[i] = static_cast<std::uint8_t>(rng());
    }
    data_ = std::move(data);
    // The testbed, with the data plane attached to its RobuSTore scheme.
    sim::Engine engine;
    client::Cluster cluster(engine, trialCluster(cfg_), Rng(cfg_.seed ^ 0xc1u));
    auto scheme =
        client::makeScheme(SchemeKind::kRobuStore, cluster, cfg_.lt, cfg_.codec);
    static_cast<client::RobuStoreScheme&>(*scheme).attachDataPlane(
        {.data = data_, .streaming = true});
  }

  void warmUp() override { (void)run(0, nullptr); }

  Outcome run(std::uint64_t index, SpanLog* log) override {
    const bool sim_only = index >= kSimOnly;
    const std::int64_t t0 = nowNs();
    const std::int64_t c0 = threadCpuNs();
    TrialOptions opt;
    opt.log = log;
    opt.index = index;
    if (!sim_only) opt.data = data_;
    TrialResult r = runTrialParts(
        cfg_, SchemeKind::kRobuStore,
        static_cast<std::uint32_t>(sim_only ? index - kSimOnly : index), opt);
    Outcome o = accessOutcome(index, SchemeKind::kRobuStore, r.m);
    o.host_s = cpuSecondsSince(c0);
    o.wall_s = secondsSince(t0);
    o.read_host_s = r.read_host_s;
    o.counters = r.counters;
    bool verified = sim_only || (r.report.has_value() && r.report->verified);
    if (inject_ == Inject::kDecode && index == 0) verified = false;
    if (r.report.has_value()) {
      o.symbols_fed = r.report->symbols_fed;
      o.xor_ops = r.report->xor_ops;
    }
    if (r.m.complete && !verified) o.unverified = 1;
    Digest d;
    d.add(o.digest);
    d.add(static_cast<std::uint64_t>(o.symbols_fed));
    d.add(o.xor_ops);
    d.add(static_cast<std::uint64_t>(verified));
    o.digest = d.value();
    return o;
  }

  Shapes recordShapes() override { return shapesOf(cfg_, 0); }

 private:
  core::ExperimentConfig cfg_;
  std::uint64_t sim_reads_;
  Inject inject_;
  std::shared_ptr<const std::vector<std::uint8_t>> data_;
};

// ---------------------------------------------------------------------------
// campaign: core::MultiClientExperiment, one whole campaign per unit.

client::ClusterConfig campaignCluster(const core::MultiClientConfig& cfg) {
  client::ClusterConfig cc;
  cc.num_servers = cfg.num_servers;
  cc.server.disks_per_server = cfg.disks_per_server;
  cc.server.disk_params = cfg.disk_params;
  cc.server.round_trip = cfg.round_trip;
  cc.server.nic_bandwidth = cfg.nic_bandwidth;
  cc.server.admission = cfg.admission;
  return cc;
}

/// The campaign loop of core::MultiClientExperiment::run, rebuilt from the
/// public client API so its calls can carry spans and its testbed's
/// counters can be read. The correctness gate checks it against the real
/// MultiClientExperiment::run on every traced run.
core::MultiClientResult campaignParts(const core::MultiClientConfig& cfg,
                                      SpanLog* log, std::uint64_t a,
                                      LayerCounters& counters) {
  struct ClientState {
    std::unique_ptr<client::Scheme> scheme;
    std::unique_ptr<client::Scheme::Session> session =
        std::make_unique<client::Scheme::Session>();
    client::StoredFile file;
    std::vector<std::uint32_t> disks;
    std::vector<std::uint32_t> pool;
    Rng rng{0};
    std::uint32_t accesses_done = 0;
    bool started = false;
    bool collected = false;
  };
  if (!cfg.fast_selection || cfg.accesses_per_client < 2 ||
      cfg.admission.enabled || cfg.flight) {
    throw std::logic_error("perfbench: unsupported campaign configuration");
  }
  const telemetry::HostProfiler::TrialGuard profile(true);
  const Scoped root(log, "core.MultiClientExperiment.run", a);
  sim::Engine engine;
  std::optional<client::Cluster> cluster_slot;
  {
    const Scoped s(log, "client.Cluster", a);
    cluster_slot.emplace(engine, campaignCluster(cfg), Rng(cfg.seed ^ 0x5eedu));
  }
  client::Cluster& cluster = *cluster_slot;

  std::vector<ClientState> clients(cfg.num_clients);
  std::vector<
      std::pair<client::Scheme*, std::unique_ptr<client::Scheme::Session>>>
      retired;
  core::MultiClientResult result;
  std::uint32_t completed = 0;
  bool experiment_over = false;
  SimTime first_start = -1.0;
  SimTime last_finish = 0.0;

  const auto selectAdmitted = [&](ClientState& c) {
    c.disks.clear();
    const std::uint32_t n = cluster.numDisks();
    if (c.pool.size() != n) {
      c.pool.resize(n);
      std::iota(c.pool.begin(), c.pool.end(), 0U);
    }
    for (std::uint32_t j = 0; j < n && c.disks.size() < cfg.disks_per_access;
         ++j) {
      const auto pick = j + static_cast<std::uint32_t>(c.rng.below(n - j));
      std::swap(c.pool[j], c.pool[pick]);
      const std::uint32_t d = c.pool[j];
      if (cluster.serverOfDisk(d).admission().admit(cluster.localDiskIndex(d),
                                                    c.session->stream)) {
        c.disks.push_back(d);
      }
    }
    return c.disks.size() * 2 >= cfg.disks_per_access;
  };

  std::function<void(std::uint32_t)> startClient = [&](std::uint32_t index) {
    if (experiment_over) return;
    ClientState& c = clients[index];
    if (!selectAdmitted(c)) {
      throw std::logic_error("perfbench: admission refused without control");
    }
    c.started = true;
    if (first_start < 0) first_start = engine.now();
    {
      const Scoped s(log, "client.planFile", a);
      c.file = c.scheme->planFile(cfg.access, c.disks, cfg.layout, c.rng);
    }
    c.session->on_complete = [&, index] {
      ClientState& done = clients[index];
      done.scheme->cancelOutstanding(*done.session);
      for (const auto d : done.disks) {
        cluster.serverOfDisk(d).admission().release(cluster.localDiskIndex(d),
                                                    done.session->stream);
      }
      last_finish = engine.now();
      ++done.accesses_done;
      if (done.session->complete) ++result.accesses_completed;
      result.accesses.add(done.scheme->collect(
          *done.session, cfg.access.dataBytes(), cfg.access.k));
      done.collected = true;
      if (done.accesses_done < cfg.accesses_per_client) {
        if (experiment_over) return;
        const auto stream = done.session->stream;
        std::erase_if(retired, [](const auto& s) {
          return s.second->live_requests == 0;
        });
        retired.emplace_back(done.scheme.get(), std::move(done.session));
        done.session = std::make_unique<client::Scheme::Session>();
        done.session->stream = stream;
        done.collected = false;
        engine.schedule(cfg.think_time, [&, index] { startClient(index); });
      } else if (++completed == cfg.num_clients) {
        engine.stop();
      }
    };
    const Scoped s(log, "client.beginRead", a);
    c.scheme->beginRead(*c.session, c.file, cfg.access);
  };

  std::vector<sim::Engine::BatchEvent> storm;
  storm.reserve(cfg.num_clients);
  for (std::uint32_t i = 0; i < cfg.num_clients; ++i) {
    ClientState& c = clients[i];
    {
      const Scoped s(log, "client.makeScheme", a);
      c.scheme = client::makeScheme(cfg.scheme, cluster, coding::LtParams{});
    }
    c.rng = Rng(cfg.seed * kGolden + i + 1);
    c.session->stream = cluster.nextStream();
    storm.push_back({cfg.stagger * i, [&, i] { startClient(i); }});
  }
  engine.scheduleBatch(storm);

  const SimTime deadline =
      cfg.run_deadline > 0.0 ? cfg.run_deadline : cfg.access.timeout;
  {
    const Scoped s(log, "sim.runUntil", a);
    engine.runUntil(deadline);
  }
  experiment_over = true;
  {
    const Scoped s(log, "client.abortRead", a);
    for (auto& c : clients) {
      if (c.started) c.scheme->abortRead(*c.session);
    }
    for (auto& [scheme, session] : retired) scheme->abortRead(*session);
  }
  {
    const Scoped s(log, "sim.run", a);
    engine.run();
  }
  result.drained_at = engine.now();
  result.clients_completed = completed;
  for (auto& c : clients) {
    if (c.collected) continue;
    result.accesses.add(
        c.scheme->collect(*c.session, cfg.access.dataBytes(), cfg.access.k));
  }
  result.makespan = result.accesses_completed > 0 && first_start >= 0
                        ? last_finish - first_start
                        : 0.0;
  if (result.makespan > 0) {
    result.system_throughput_mbps =
        toMBps(static_cast<Bytes>(result.accesses_completed) *
                   cfg.access.dataBytes(),
               result.makespan);
  }
  for (std::uint32_t s = 0; s < cluster.numServers(); ++s) {
    result.admission_refusals += cluster.server(s).admission().refused();
  }
  const auto& stats = engine.stats();
  result.events_scheduled = stats.scheduled;
  result.events_fired = stats.fired;
  result.peak_live_events = stats.peak_live;
  counters = readCounters(cluster, engine);
  return result;
}

class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(core::MultiClientConfig cfg, std::uint64_t sim_campaigns)
      : cfg_(std::move(cfg)), sim_campaigns_(sim_campaigns) {}

  [[nodiscard]] const char* name() const override { return "campaign"; }
  [[nodiscard]] std::vector<std::uint64_t> simUnits() const override {
    return robustoreUnits(sim_campaigns_, 4);
  }
  [[nodiscard]] std::uint64_t gatePrefix() const override { return 4; }

  void setUp() override {
    // SIMD probe, config validation, then the first campaign's testbed with
    // every client's scheme on it.
    coding::simd::refresh();
    const core::MultiClientExperiment validated(cfg_);
    const core::MultiClientConfig cfg = configFor(0);
    sim::Engine engine;
    client::Cluster cluster(engine, campaignCluster(cfg),
                            Rng(cfg.seed ^ 0x5eedu));
    for (std::uint32_t i = 0; i < cfg.num_clients; ++i) {
      (void)client::makeScheme(cfg.scheme, cluster, coding::LtParams{});
    }
  }

  void warmUp() override {
    // One full campaign per scheme: the first campaign at full size grows
    // the allocator's arenas and runs well above the steady cost.
    for (std::uint64_t i = 0; i < 4; ++i) (void)run(i, nullptr);
  }

  /// Seed of campaign `trial`: trial 0 runs at the workload seed itself,
  /// which is what lets the tests compare it with bench_scale_sweep.
  [[nodiscard]] core::MultiClientConfig configFor(std::uint64_t index) const {
    core::MultiClientConfig cfg = cfg_;
    cfg.scheme = kSchemes[index % 4];
    cfg.seed = cfg_.seed + (index / 4) * kGolden;
    return cfg;
  }

  Outcome run(std::uint64_t index, SpanLog* log) override {
    const core::MultiClientConfig cfg = configFor(index);
    const std::int64_t t0 = nowNs();
    const std::int64_t c0 = threadCpuNs();
    Outcome o;
    core::MultiClientResult r;
    if (log == nullptr) {
      r = core::MultiClientExperiment(cfg).run();
    } else {
      r = campaignParts(cfg, log, index, o.counters);
    }
    o.host_s = cpuSecondsSince(c0);
    o.wall_s = secondsSince(t0);
    o.index = index;
    o.kind = cfg.scheme;
    o.k = cfg.access.k;
    o.attempted = static_cast<std::uint64_t>(cfg.num_clients) *
                  cfg.accesses_per_client;
    o.completed = r.accesses_completed;
    o.data_bytes = static_cast<double>(r.accesses_completed) *
                   static_cast<double>(cfg.access.dataBytes());
    o.aggregate = r.accesses;
    o.system_throughput_mbps = r.system_throughput_mbps;
    o.events_fired = r.events_fired;
    o.peak_live_events = r.peak_live_events;
    Digest d;
    d.add(static_cast<std::uint64_t>(cfg.scheme));
    d.add(r.accesses_completed);
    d.add(static_cast<std::uint64_t>(r.clients_completed));
    d.add(r.events_scheduled);
    d.add(r.events_fired);
    d.add(static_cast<std::uint64_t>(r.peak_live_events));
    d.add(r.admission_refusals);
    d.add(r.system_throughput_mbps);
    d.add(r.makespan);
    d.add(r.drained_at);
    digestAggregate(d, r.accesses);
    o.digest = d.value();
    return o;
  }

  Shapes recordShapes() override {
    // One RobuSTore access of the campaign's size on the same testbed.
    core::ExperimentConfig one;
    one.num_servers = cfg_.num_servers;
    one.disks_per_server = cfg_.disks_per_server;
    one.access = cfg_.access;
    one.disks_per_access = cfg_.disks_per_access;
    one.layout = cfg_.layout;
    one.seed = cfg_.seed;
    return shapesOf(one, 0);
  }

 private:
  core::MultiClientConfig cfg_;
  std::uint64_t sim_campaigns_;
};

}  // namespace

void LayerCounters::add(const LayerCounters& o) {
  events_scheduled += o.events_scheduled;
  events_fired += o.events_fired;
  events_cancelled += o.events_cancelled;
  events_overflow += o.events_overflow;
  peak_live = std::max(peak_live, o.peak_live);
  disk_fg_bytes += o.disk_fg_bytes;
  disk_bg_bytes += o.disk_bg_bytes;
  disk_fg_busy_s += o.disk_fg_busy_s;
  disk_bg_busy_s += o.disk_bg_busy_s;
  server_network_bytes += o.server_network_bytes;
  link_bytes += o.link_bytes;
}

const char* schemeKey(SchemeKind kind) {
  switch (kind) {
    case SchemeKind::kRaid0:
      return "raid0";
    case SchemeKind::kRRaidS:
      return "rraid_s";
    case SchemeKind::kRRaidA:
      return "rraid_a";
    case SchemeKind::kRobuStore:
      return "robustore";
  }
  return "unknown";
}

std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                       std::uint64_t seed, bool tiny,
                                       Inject inject) {
  if (name == "paper_read" || name == "write_read") {
    // §6.2.5 baseline: 128 disks, 64 per access, 1 GB = 1024 x 1 MiB, 3x.
    core::ExperimentConfig cfg;
    cfg.seed = seed;
    if (tiny) {
      cfg.access.k = 64;
      cfg.disks_per_access = 16;
    }
    if (name == "paper_read") {
      return std::make_unique<TrialWorkload>("paper_read", cfg, false,
                                             tiny ? 2 : 400,
                                             tiny ? 8 : 16);
    }
    // Fig 6-21 read-after-write under the §6.3.2 heterogeneous background
    // load, at 128 MB so a run times thousands of accesses: the host
    // time of RRAID accesses has a long tail, and at 256 MB the p95 moved
    // by over 20% across seeds on a steady host. Faults are lossless
    // transient stalls: a crash-recover outage during a write fails RAID-0
    // and RRAID writes outright. The watchdog fires on requests queued
    // behind heavy background load; its re-issue budget is sized so none
    // exhausts. Its simulated results come from 2400 RobuSTore trials: the
    // watchdog's rare 10 s re-issues set the latency spread, and over 1200
    // trials sim_latency_sd_s moved by 19% across ten seeds.
    if (!tiny) cfg.access.k = 128;
    cfg.op = core::ExperimentConfig::Op::kReadAfterWrite;
    cfg.redraw_layout_after_write = true;
    cfg.background = core::ExperimentConfig::Background::kHeterogeneous;
    cfg.faults.model.stall_prob = 0.1;
    cfg.faults.model.mean_stall = 0.2;
    cfg.faults.model.horizon = 2.0;
    cfg.access.request_timeout = 10.0;
    cfg.access.max_reissues = 24;
    return std::make_unique<TrialWorkload>("write_read", cfg, true,
                                           tiny ? 2 : 2400, 8);
  }
  if (name == "campaign") {
    // bench_scale_sweep's 128d/1000c rung.
    core::MultiClientConfig cfg;
    cfg.num_servers = tiny ? 4 : 16;
    cfg.disks_per_server = tiny ? 4 : 8;
    cfg.num_clients = tiny ? 32 : 1000;
    cfg.disks_per_access = 8;
    cfg.access.k = 4;
    cfg.access.block_bytes = 64 * kKiB;
    cfg.access.redundancy = 2.0;
    cfg.layout.heterogeneous = false;
    cfg.accesses_per_client = tiny ? 2 : 10;
    cfg.stagger = 1 * kMilliseconds;
    cfg.fast_selection = true;
    cfg.seed = seed;
    return std::make_unique<CampaignWorkload>(cfg, tiny ? 1 : 2);
  }
  if (name == "data_plane") {
    // bench_streaming_decode's read: 64 MB = 256 x 256 KiB, 2x, 16 disks.
    core::ExperimentConfig cfg;
    cfg.num_servers = 4;
    cfg.disks_per_server = 4;
    cfg.disks_per_access = 16;
    cfg.access.block_bytes = tiny ? 64 * kKiB : 256 * kKiB;
    cfg.access.k = tiny ? 32 : 256;
    cfg.access.redundancy = 2.0;
    cfg.seed = seed;
    // Simulated results over 1600 reads: over 800, sim_latency_sd_s moved
    // by 13% across ten seeds.
    return std::make_unique<DataPlaneWorkload>(cfg, tiny ? 4 : 1600,
                                               inject);
  }
  return nullptr;
}

}  // namespace perfbench
