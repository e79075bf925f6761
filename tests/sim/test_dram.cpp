// Behavioural invariants of the DRAM model: these are the mechanisms the
// paper's algorithm exploits, so the model must get their *ordering* right
// (sequential fastest, giant power-of-two strides slowest, many interleaved
// streams slower than one).
#include "sim/dram.h"

#include <gtest/gtest.h>

#include <iomanip>

#include "common/rng.h"
#include "sim/spec.h"

namespace repro::sim {
namespace {

std::vector<Transaction> stream_seq(std::uint64_t base, std::size_t n,
                                    std::uint32_t bytes = 64,
                                    std::uint64_t stride = 64) {
  std::vector<Transaction> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back({base + i * stride, bytes});
  }
  return v;
}

class DramTest : public ::testing::Test {
 protected:
  GpuSpec gpu_ = geforce_8800_gtx();
  DramModel dram_{gpu_.dram, gpu_.peak_bandwidth_gbs()};
};

TEST_F(DramTest, SequentialStreamNearsPeakEfficiency) {
  const auto s = stream_seq(0, 1 << 16);
  const double gbs = dram_.effective_bandwidth_gbs({&s, 1});
  const double peak = gpu_.peak_bandwidth_gbs();
  EXPECT_GT(gbs, 0.75 * peak);
  EXPECT_LE(gbs, gpu_.dram.peak_efficiency * peak * 1.001);
}

TEST_F(DramTest, LargePow2StrideIsMuchSlower) {
  // Stride of row_bytes * banks * channels hammers one bank's rows.
  const std::uint64_t bad_stride = static_cast<std::uint64_t>(
      gpu_.dram.row_bytes) * gpu_.dram.banks_per_channel *
      gpu_.dram.channels * gpu_.dram.interleave / gpu_.dram.interleave;
  const auto seq = stream_seq(0, 4096);
  const auto strided = stream_seq(0, 4096, 64, bad_stride * 64);
  const double gbs_seq = dram_.effective_bandwidth_gbs({&seq, 1});
  const double gbs_str = dram_.effective_bandwidth_gbs({&strided, 1});
  EXPECT_LT(gbs_str, 0.5 * gbs_seq);
}

TEST_F(DramTest, BandwidthDecreasesWithStreamCount) {
  // Section 2.1: 71.7 GB/s for one stream down to 30.7 GB/s for 256
  // streams (on the GTX). As in the multirow measurement, each warp's
  // transaction stream touches every data stream in turn (the streams are
  // 512 KB apart), so a warp's access window spreads with the stream
  // count.
  auto run = [&](std::size_t n_streams) {
    const std::size_t warps = 16;
    const std::size_t rounds = 1024 / n_streams;
    std::vector<std::vector<Transaction>> streams(warps);
    for (std::size_t w = 0; w < warps; ++w) {
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t s = 0; s < n_streams; ++s) {
          streams[w].push_back(
              Transaction{s * (512ull << 10) + (r * warps + w) * 128, 128});
        }
      }
    }
    return dram_.effective_bandwidth_gbs(streams);
  };
  const double one = run(1);
  const double sixteen = run(16);
  const double many = run(256);
  EXPECT_GT(one, sixteen);
  EXPECT_GT(sixteen, many);
  EXPECT_LT(many, 0.75 * one);
}

TEST_F(DramTest, InterleavedNeighboursShareRows) {
  // Two streams walking adjacent halves of the same rows should not be
  // slower than 2x the time of a single combined stream.
  const auto combined = stream_seq(0, 8192);
  std::vector<std::vector<Transaction>> pair(2);
  for (std::size_t i = 0; i < 4096; ++i) {
    pair[0].push_back({i * 128, 64});
    pair[1].push_back({i * 128 + 64, 64});
  }
  const double t_combined = dram_.replay_one(combined);
  const double t_pair = dram_.replay(pair);
  EXPECT_NEAR(t_pair, t_combined, 0.25 * t_combined);
}

TEST_F(DramTest, IdealTimeMatchesPinBandwidthTimesEfficiency) {
  const std::uint64_t bytes = 1ull << 20;
  const double ns = dram_.ideal_time_ns(bytes);
  const double gbs = static_cast<double>(bytes) / ns;
  EXPECT_NEAR(gbs, gpu_.peak_bandwidth_gbs() * gpu_.dram.peak_efficiency,
              0.01);
}

TEST_F(DramTest, SmallTransactionsWasteBandwidth) {
  // 32-byte transactions move half the data per row activity of 64-byte
  // ones: same transaction count at half the bytes must not be more than
  // ~60% of the 64-byte stream's bandwidth.
  const auto big = stream_seq(0, 8192, 64, 64);
  const auto small = stream_seq(0, 8192, 32, 32);
  const double gbs_big = dram_.effective_bandwidth_gbs({&big, 1});
  const double gbs_small = dram_.effective_bandwidth_gbs({&small, 1});
  EXPECT_NEAR(gbs_small, gbs_big, gbs_big * 0.05);  // bytes/ns equal here
}

TEST_F(DramTest, EmptyStreamsCostNothing) {
  std::vector<std::vector<Transaction>> none;
  EXPECT_EQ(dram_.replay(none), 0.0);
  EXPECT_EQ(dram_.effective_bandwidth_gbs(none), 0.0);
}

TEST_F(DramTest, DeterministicReplay) {
  const auto s = stream_seq(12345, 1000, 64, 2048);
  const double a = dram_.replay_one(s);
  const double b = dram_.replay_one(s);
  EXPECT_EQ(a, b);
}

// Exact replay times of seeded streams, recorded with the per-transaction
// nth_element neighbour search. The streams cover scattered, clustered,
// mixed and duplicate-address (distance-0 tie) traffic, plus lengths at
// the +-16 window's edges and below the 8-neighbour minimum.
TEST_F(DramTest, SpreadPenaltiesPinnedOnSeededStreams) {
  SplitMix64 rng(20081115);
  auto line = [](std::uint64_t a) { return a & ~std::uint64_t{63}; };
  auto scattered = [&](std::size_t n) {
    std::vector<Transaction> v;
    for (std::size_t i = 0; i < n; ++i) {
      v.push_back({line(rng.below(1ull << 30)), 64});
    }
    return v;
  };
  std::vector<std::vector<Transaction>> streams;
  streams.push_back(scattered(300));
  {
    std::vector<Transaction> v;  // four 64 KB clusters, 32 MB apart
    for (std::size_t i = 0; i < 300; ++i) {
      v.push_back({(rng.below(4) << 25) + line(rng.below(1 << 16)), 64});
    }
    streams.push_back(v);
  }
  {
    std::vector<Transaction> v;  // sequential reads between scattered writes
    for (std::size_t i = 0; i < 300; ++i) {
      v.push_back(i % 2 == 0 ? Transaction{(1ull << 31) + i * 32, 64}
                             : Transaction{line(rng.below(1ull << 30)), 32});
    }
    streams.push_back(v);
  }
  {
    std::vector<Transaction> v;  // six addresses 4 MB apart
    for (std::size_t i = 0; i < 200; ++i) {
      v.push_back({rng.below(6) << 22, 64});
    }
    streams.push_back(v);
  }
  for (const std::size_t n : {1, 8, 9, 33}) streams.push_back(scattered(n));

  constexpr double kPinned[] = {
      786.82828282828291, 445.69946749158549, 361.25766436292741,
      761.96187811382049, 6.0505050505050502, 20.050505050505052,
      56.202020202020208, 126.45454545454547};
  ASSERT_EQ(streams.size(), std::size(kPinned));
  for (std::size_t i = 0; i < streams.size(); ++i) {
    const double ns = dram_.replay_one(streams[i]);
    EXPECT_EQ(ns, kPinned[i])
        << "stream " << i << ": " << std::setprecision(17) << ns;
  }
  const double all = dram_.replay(streams);
  EXPECT_EQ(all, 2281.4134078972447)
      << "interleaved: " << std::setprecision(17) << all;
}

TEST(DramChannels, WiderBusIsFaster) {
  const GpuSpec gt = geforce_8800_gt();    // 256-bit
  const GpuSpec gtx = geforce_8800_gtx();  // 384-bit
  DramModel d_gt(gt.dram, gt.peak_bandwidth_gbs());
  DramModel d_gtx(gtx.dram, gtx.peak_bandwidth_gbs());
  const auto s = stream_seq(0, 1 << 14);
  EXPECT_GT(d_gtx.effective_bandwidth_gbs({&s, 1}),
            d_gt.effective_bandwidth_gbs({&s, 1}));
}

}  // namespace
}  // namespace repro::sim
