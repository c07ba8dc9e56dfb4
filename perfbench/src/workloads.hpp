#pragma once

// The four benchmark workloads. Each is a sequence of units indexed from
// 0; unit i is pure in (seed, i), so any worker may run it and the
// simulated outputs of any set of units form a digest that must not
// depend on worker count or tracing.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "client/scheme.hpp"
#include "coding/lt_graph.hpp"
#include "common.hpp"
#include "disk/layout.hpp"
#include "metrics/metrics.hpp"

namespace perfbench {

/// Counters read from public accessors after a traced unit. Summed over
/// units; divided by accesses when reported.
struct LayerCounters {
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_fired = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_overflow = 0;
  std::uint64_t peak_live = 0;  // max, not sum
  double disk_fg_bytes = 0.0;
  double disk_bg_bytes = 0.0;
  double disk_fg_busy_s = 0.0;
  double disk_bg_busy_s = 0.0;
  double server_network_bytes = 0.0;
  double link_bytes = 0.0;
  void add(const LayerCounters& o);
};

/// What one unit produced. A unit is one access (paper_read, write_read,
/// data_plane) or one whole campaign of many accesses (campaign).
struct Outcome {
  std::uint64_t index = 0;
  robustore::client::SchemeKind kind = robustore::client::SchemeKind::kRaid0;
  /// Original block count K of each access.
  std::uint32_t k = 0;
  /// Simulated accesses attempted / completed in the unit.
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  /// Completed, but the data plane did not verify its decode.
  std::uint64_t unverified = 0;
  /// Host seconds of the unit: CPU time of the thread that ran it.
  double host_s = 0.0;
  /// Host wall seconds of the unit (diagnostics only).
  double wall_s = 0.0;
  /// Useful file bytes the unit's completed accesses delivered.
  double data_bytes = 0.0;
  /// Host seconds (thread CPU time) inside Scheme::read.
  double read_host_s = 0.0;
  /// Per-access sim metrics (single-access units) or the campaign's
  /// aggregate (campaign units).
  robustore::metrics::AccessMetrics access;
  robustore::metrics::AccessAggregate aggregate;
  double system_throughput_mbps = 0.0;
  std::uint64_t events_fired = 0;
  std::uint64_t peak_live_events = 0;
  /// Data plane report fields.
  std::uint32_t symbols_fed = 0;
  std::uint64_t xor_ops = 0;
  /// Digest of every simulated output of the unit.
  std::uint64_t digest = 0;
  /// Traced units only.
  LayerCounters counters;
};

/// Request shapes recorded from a workload for its layer micro-drivers.
struct Shapes {
  robustore::Bytes block_bytes = 0;
  /// In-disk layout of one placement: its blocks' extents in stored order
  /// are the disk queue a speculative read submits at once.
  robustore::disk::FileDiskLayout layout;
  /// Live-event population the engine reached.
  std::uint64_t peak_live = 0;
  /// The coding graph of one RobuSTore access and the order its coded
  /// symbols reached the client.
  std::shared_ptr<const robustore::coding::LtGraph> graph;
  std::vector<std::uint32_t> arrival_order;
};

/// Fault injection for the benchmark's own tests.
enum class Inject : std::uint8_t { kNone, kDigest, kDecode };

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual const char* name() const = 0;
  /// RobuSTore units whose simulated outputs give the sim_* metrics and
  /// the run's digest. They run even where the timed phase stops short.
  [[nodiscard]] virtual std::vector<std::uint64_t> simUnits() const = 0;
  /// Units the correctness gate re-runs.
  [[nodiscard]] virtual std::uint64_t gatePrefix() const = 0;
  /// Builds the inputs and the testbed; timed in fresh processes for
  /// setup_s.
  virtual void setUp() = 0;
  /// Runs a few units untimed, once, after set-up.
  virtual void warmUp() = 0;
  /// Runs unit `index`. A non-null log records spans and fills
  /// outcome.counters.
  [[nodiscard]] virtual Outcome run(std::uint64_t index, SpanLog* log) = 0;
  /// Re-runs one access with the simulator's tracer attached and
  /// reconstructs request shapes for the micro-drivers.
  [[nodiscard]] virtual Shapes recordShapes() = 0;
};

/// The named workload at its benchmark size, or shrunk for the
/// benchmark's own tests when `tiny`; null for an unknown name.
[[nodiscard]] std::unique_ptr<Workload> makeWorkload(const std::string& name,
                                                     std::uint64_t seed,
                                                     bool tiny, Inject inject);

/// Short lowercase scheme key used in metric names (raid0, rraid_s, ...).
[[nodiscard]] const char* schemeKey(robustore::client::SchemeKind kind);

inline constexpr robustore::client::SchemeKind kSchemes[] = {
    robustore::client::SchemeKind::kRaid0,
    robustore::client::SchemeKind::kRRaidS,
    robustore::client::SchemeKind::kRRaidA,
    robustore::client::SchemeKind::kRobuStore};

}  // namespace perfbench
