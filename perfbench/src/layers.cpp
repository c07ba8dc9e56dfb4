#include "layers.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <vector>

#include "coding/lt_codec.hpp"
#include "coding/xor_kernel.hpp"
#include "common/rng.hpp"
#include "disk/disk.hpp"
#include "net/link.hpp"
#include "server/storage_server.hpp"
#include "sim/engine.hpp"

namespace perfbench {
namespace {

using namespace robustore;

/// Repeats `rep` (which returns one measurement) at least `min_reps` times
/// and until `min_seconds` have passed; returns the median.
double medianOf(const std::function<double()>& rep, int min_reps,
                double min_seconds) {
  std::vector<double> values;
  const std::int64_t t0 = nowNs();
  while (static_cast<int>(values.size()) < min_reps ||
         (secondsSince(t0) < min_seconds && values.size() < 1000)) {
    values.push_back(rep());
  }
  return median(values);
}

/// Engine storm at a given live population: `hot` self-rescheduling
/// chains at millisecond spacing over `parked` far-future events, each hot
/// firing also re-arming its chain's watchdog (a schedule plus a cancel),
/// the way a tracked block read arms and clears its request timeout.
struct Storm {
  sim::Engine engine;
  Rng rng{0x5ca1eULL};
  std::vector<sim::EventId> watchdogs;
  std::uint64_t budget = 0;
  std::uint64_t fired = 0;

  struct Fire {
    Storm* s;
    std::uint32_t chain;
    void operator()() const {
      ++s->fired;
      if (s->budget == 0) return;
      --s->budget;
      s->engine.cancel(s->watchdogs[chain]);
      s->watchdogs[chain] = s->engine.schedule(30.0, [] {});
      s->engine.schedule(s->rng.uniform(0.0, 4e-3), Fire{s, chain});
    }
  };

  double nsPerEvent(std::uint64_t events, std::uint64_t parked,
                    std::uint32_t hot) {
    budget = events;
    watchdogs.assign(hot, sim::EventId{});
    const std::int64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < parked; ++i) {
      engine.schedule(rng.uniform(3600.0, 7200.0), [] {});
    }
    for (std::uint32_t c = 0; c < hot; ++c) {
      engine.schedule(rng.uniform(0.0, 4e-3), Fire{this, c});
    }
    engine.runUntil(1800.0);
    return static_cast<double>(nowNs() - t0) /
           static_cast<double>(std::max<std::uint64_t>(fired, 1));
  }
};

disk::DiskRequestSpec specOf(const disk::FileDiskLayout& layout,
                             std::uint32_t block, disk::StreamId stream,
                             double media_rate) {
  disk::DiskRequestSpec spec;
  spec.stream = stream;
  spec.extents = layout.blockExtents(block);
  spec.media_rate = media_rate;
  return spec;
}

/// Feeds `order` (then every remaining coded id) to a fresh ID-mode
/// decoder until it completes.
void decodeIds(const coding::LtGraph& graph,
               const std::vector<std::uint32_t>& order) {
  coding::LtDecoder dec(graph);
  for (const auto id : order) {
    if (dec.addSymbol(id)) return;
  }
  for (std::uint32_t id = 0; id < graph.n() && !dec.complete(); ++id) {
    dec.addSymbol(id);
  }
}

}  // namespace

LayerTimings runLayerDrivers(const Shapes& shapes, std::uint64_t seed,
                             bool data_mode) {
  LayerTimings t;
  const disk::FileDiskLayout& layout = shapes.layout;

  // --- sim ------------------------------------------------------------
  const std::uint64_t live = std::max<std::uint64_t>(shapes.peak_live, 64);
  const auto hot = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(live / 4, 16, 1024));
  t.dispatch_ns = medianOf(
      [&] {
        Storm storm;
        return storm.nsPerEvent(400'000, live - hot, hot);
      },
      3, 0.2);

  // --- disk: the placement's whole queue, submitted at once -----------
  if (layout.numBlocks() > 0) {
    t.submit_complete_ns = medianOf(
        [&] {
          sim::Engine engine;
          disk::Disk disk(engine, disk::DiskParams{}, Rng(seed));
          const double rate = disk.mediaRate(layout.zone());
          std::uint32_t done = 0;
          const std::int64_t t0 = nowNs();
          for (std::uint32_t b = 0; b < layout.numBlocks(); ++b) {
            disk.submit(specOf(layout, b, 1, rate),
                        [&done](disk::RequestId) { ++done; });
          }
          engine.run();
          return static_cast<double>(nowNs() - t0) / std::max(done, 1U);
        },
        5, 0.2);
    t.cancel_stream_us = medianOf(
        [&] {
          sim::Engine engine;
          disk::Disk disk(engine, disk::DiskParams{}, Rng(seed));
          const double rate = disk.mediaRate(layout.zone());
          for (std::uint32_t b = 0; b < layout.numBlocks(); ++b) {
            disk.submit(specOf(layout, b, 1, rate), [](disk::RequestId) {});
          }
          const std::int64_t t0 = nowNs();
          disk.cancelStream(1);
          const double us = static_cast<double>(nowNs() - t0) * 1e-3;
          engine.run();
          return us;
        },
        5, 0.1);

    // --- server and net: the same queue through one filer -------------
    t.read_forward_ns = medianOf(
        [&] {
          sim::Engine engine;
          server::StorageServer srv(engine, server::ServerConfig{}, Rng(seed));
          std::uint32_t delivered = 0;
          const std::int64_t t0 = nowNs();
          for (std::uint32_t b = 0; b < layout.numBlocks(); ++b) {
            server::StorageServer::BlockRead req;
            req.stream = 1;
            req.cache_key = static_cast<std::uint64_t>(b + 1) << 16;
            req.layout = &layout;
            req.layout_block = b;
            srv.readBlock(req, [&delivered](bool) { ++delivered; });
          }
          engine.run();
          return static_cast<double>(nowNs() - t0) / std::max(delivered, 1U);
        },
        5, 0.2);
    t.write_ns = medianOf(
        [&] {
          sim::Engine engine;
          server::StorageServer srv(engine, server::ServerConfig{}, Rng(seed));
          std::uint32_t acked = 0;
          const std::int64_t t0 = nowNs();
          for (std::uint32_t b = 0; b < layout.numBlocks(); ++b) {
            server::StorageServer::BlockWrite req;
            req.stream = 1;
            req.cache_key = static_cast<std::uint64_t>(b + 1) << 16;
            req.layout = &layout;
            req.layout_block = b;
            srv.writeBlock(req, [&acked] { ++acked; });
          }
          engine.run();
          return static_cast<double>(nowNs() - t0) / std::max(acked, 1U);
        },
        5, 0.2);
  }
  t.reserve_send_ns = medianOf(
      [&] {
        sim::Engine engine;
        net::Link link(engine, 1.0 * kMilliseconds, mbps(250.0));
        constexpr int kCalls = 200'000;
        const std::int64_t t0 = nowNs();
        for (int i = 0; i < kCalls; ++i) {
          (void)link.reserveSend(shapes.block_bytes);
        }
        return static_cast<double>(nowNs() - t0) / kCalls;
      },
      5, 0.05);

  // --- coding: ID-mode peel in the recorded arrival order ---------------
  if (shapes.graph != nullptr) {
    t.lt_id_decode_us = medianOf(
        [&] {
          const std::int64_t t0 = nowNs();
          decodeIds(*shapes.graph, shapes.arrival_order);
          return static_cast<double>(nowNs() - t0) * 1e-3;
        },
        5, 0.2);
  }

  // --- coding: data mode at the data plane's block size -----------------
  if (data_mode && shapes.graph != nullptr) {
    const coding::LtGraph& graph = *shapes.graph;
    const Bytes bb = shapes.block_bytes;
    std::vector<std::uint8_t> data(static_cast<std::size_t>(graph.k()) * bb);
    Rng rng(seed ^ 0xc0deULL);
    for (std::size_t i = 0; i + 8 <= data.size(); i += 8) {
      const std::uint64_t w = rng();
      std::memcpy(data.data() + i, &w, 8);
    }
    const coding::LtEncoder encoder(graph, data, bb);
    std::vector<std::uint8_t> block(bb);
    t.encode_block_gbps = medianOf(
        [&] {
          const std::uint32_t n = std::min<std::uint32_t>(graph.n(), 128);
          const std::int64_t t0 = nowNs();
          for (std::uint32_t id = 0; id < n; ++id) {
            encoder.encodeBlock(id, block);
          }
          return static_cast<double>(n) * static_cast<double>(bb) /
                 static_cast<double>(nowNs() - t0);
        },
        3, 0.1);
    // Payloads are synthesized outside the timed calls, so only the
    // decoder's own copying and XOR work is measured.
    t.data_decode_gbps = medianOf(
        [&] {
          coding::LtDecoder dec(graph, bb);
          std::int64_t busy = 0;
          const auto feed = [&](std::uint32_t id) {
            encoder.encodeBlock(id, block);
            const std::int64_t t0 = nowNs();
            const bool done = dec.addSymbol(id, block);
            busy += nowNs() - t0;
            return done;
          };
          bool done = false;
          for (const auto id : shapes.arrival_order) {
            if ((done = feed(id))) break;
          }
          for (std::uint32_t id = 0; id < graph.n() && !done; ++id) {
            done = feed(id);
          }
          return static_cast<double>(data.size()) /
                 static_cast<double>(std::max<std::int64_t>(busy, 1));
        },
        3, 0.2);
    std::vector<std::uint8_t> dst(bb, 0x5a);
    t.xor_gbps = medianOf(
        [&] {
          constexpr int kPasses = 64;
          const std::int64_t t0 = nowNs();
          for (int i = 0; i < kPasses; ++i) {
            coding::xorInto(dst, std::span<const std::uint8_t>(
                                     data.data(), static_cast<std::size_t>(bb)));
          }
          return static_cast<double>(kPasses) * static_cast<double>(bb) /
                 static_cast<double>(nowNs() - t0);
        },
        5, 0.05);
  }
  return t;
}

}  // namespace perfbench
