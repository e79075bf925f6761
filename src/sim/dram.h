// GDDR timing model.
//
// The paper's central observation is that G80 GDDR "is optimized for
// successive memory access operations, incurring heavy relative penalties
// for non-successive accesses" (Section 2.1). We model the mechanism behind
// that: the device memory is `channels` independent 64-bit channels, each
// with `banks` row buffers of `row_bytes`. A transaction whose row is open
// costs only bus time; switching rows in a bank costs precharge+activate,
// which is hidden when other banks can transfer meanwhile and exposed when
// a stream hammers one bank (exactly what large power-of-two strides do).
//
// Address mapping: contiguous memory is interleaved across channels at
// `interleave`-byte granularity, then across banks at row granularity, so a
// perfectly sequential stream engages every channel and rotates through all
// banks — the "single stream copy" best case. Strides of
// row_bytes*banks*channels land in the same bank repeatedly — the worst
// case (access patterns C/D of Table 2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/spec.h"

namespace repro::sim {

/// One coalesced memory transaction: `bytes` at device address `addr`.
struct Transaction {
  std::uint64_t addr{};
  std::uint32_t bytes{};
};

/// Replays transaction streams through the channel/bank/row model and
/// accumulates simulated time. Streams from concurrently-resident warps are
/// interleaved round-robin (the memory controller services ready warps in
/// turn), which is what lets neighbouring warps reuse each other's rows.
class DramModel {
 public:
  DramModel(const DramSpec& spec, double pin_bandwidth_gbs);

  /// Cost of replaying `streams` (one per resident warp) interleaved
  /// round-robin. Returns elapsed nanoseconds.
  double replay(std::span<const std::vector<Transaction>> streams);

  /// Convenience: single stream.
  double replay_one(const std::vector<Transaction>& stream);

  /// Effective bandwidth (GB/s) for the given streams.
  double effective_bandwidth_gbs(
      std::span<const std::vector<Transaction>> streams);

  /// Time for `bytes` of perfectly sequential traffic (model upper bound).
  [[nodiscard]] double ideal_time_ns(std::uint64_t bytes) const;

  [[nodiscard]] const DramSpec& spec() const { return spec_; }

 private:
  struct Bank {
    std::int64_t open_row = -1;
    double ready_ns = 0.0;
    double last_activate_ns = -1e18;
  };

  // Decompose a device address into (channel, bank, row).
  struct Loc {
    int channel;
    int bank;
    std::int64_t row;
  };
  [[nodiscard]] Loc locate(std::uint64_t addr) const;

  /// Extra channel nanoseconds per transaction of `stream` from the
  /// warp's access spread (see DramSpec::spread_threshold_bytes), written
  /// to the caller's `out` (one entry per transaction). `window` is
  /// caller-owned scratch reused across streams.
  void spread_penalties(const std::vector<Transaction>& stream,
                        std::vector<double>& out,
                        std::vector<std::uint64_t>& window) const;

  DramSpec spec_;
  double ns_per_byte_channel_;  // bus time per byte on one channel
};

}  // namespace repro::sim
