#pragma once

// Layer micro-drivers: each calls one layer's public functions on a bare
// engine, replaying request shapes recorded from the workload, and
// reports the median of several repetitions.

#include <cstdint>

#include "workloads.hpp"

namespace perfbench {

struct LayerTimings {
  double dispatch_ns = 0.0;         // sim: schedule/cancel/runUntil per event
  double submit_complete_ns = 0.0;  // disk: submit -> completion per request
  double cancel_stream_us = 0.0;    // disk: cancelStream over a full queue
  double read_forward_ns = 0.0;     // server: readBlock -> delivery per block
  double write_ns = 0.0;            // server: writeBlock -> ack per block
  double reserve_send_ns = 0.0;     // net: Link::reserveSend per call
  double lt_id_decode_us = 0.0;     // coding: ID-mode decode of one access
  double data_decode_gbps = 0.0;    // coding: data-mode decode
  double encode_block_gbps = 0.0;   // coding: LtEncoder::encodeBlock
  double xor_gbps = 0.0;            // coding: xorInto
};

/// `shapes` come from the workload. The data-mode coding drivers run only
/// with `data_mode` (the data_plane workload); elsewhere they report 0.
[[nodiscard]] LayerTimings runLayerDrivers(const Shapes& shapes,
                                           std::uint64_t seed, bool data_mode);

}  // namespace perfbench
