// Cross-module integration checks: agreement between every transform path,
// determinism of the simulation, and sanity of the simulated clock.
#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/conventional3d.h"
#include "gpufft/naive.h"
#include "gpufft/sharded.h"
#include "gpufft/plan.h"

namespace repro {
namespace {

using gpufft::Direction;

std::vector<cxf> run_bandwidth(const sim::GpuSpec& spec,
                               const std::vector<cxf>& input, Shape3 shape,
                               double* ms = nullptr) {
  sim::Device dev(spec);
  auto data = dev.alloc<cxf>(shape.volume());
  dev.h2d(data, std::span<const cxf>(input));
  gpufft::BandwidthFft3D plan(dev, shape, Direction::Forward);
  plan.execute(data);
  if (ms != nullptr) *ms = plan.last_total_ms();
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), data);
  return out;
}

TEST(Integration, AllThreeGpusComputeIdenticalResults) {
  // Timing differs per card; the functional result must be bit-identical
  // (same kernels, same arithmetic order).
  const Shape3 shape = cube(32);
  const auto input = random_complex<float>(shape.volume(), 1);
  const auto gt = run_bandwidth(sim::geforce_8800_gt(), input, shape);
  const auto gts = run_bandwidth(sim::geforce_8800_gts(), input, shape);
  const auto gtx = run_bandwidth(sim::geforce_8800_gtx(), input, shape);
  for (std::size_t i = 0; i < gt.size(); ++i) {
    ASSERT_EQ(gt[i], gtx[i]) << i;
    ASSERT_EQ(gt[i], gts[i]) << i;
  }
}

TEST(Integration, SimulationIsDeterministic) {
  const Shape3 shape = cube(32);
  const auto input = random_complex<float>(shape.volume(), 2);
  double ms1 = 0.0;
  double ms2 = 0.0;
  const auto a = run_bandwidth(sim::geforce_8800_gtx(), input, shape, &ms1);
  const auto b = run_bandwidth(sim::geforce_8800_gtx(), input, shape, &ms2);
  EXPECT_EQ(ms1, ms2);
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Integration, AllAlgorithmsAgreeWithHost) {
  const Shape3 shape = cube(64);
  const auto input = random_complex<float>(shape.volume(), 3);
  std::vector<cxf> ref = input;
  fft::Plan3D<float> host(shape, fft::Direction::Forward);
  host.execute(ref);
  const double bound = fft_error_bound<float>(shape.volume());

  sim::Device dev(sim::geforce_8800_gts());
  auto data = dev.alloc<cxf>(shape.volume());
  std::vector<cxf> out(shape.volume());

  dev.h2d(data, std::span<const cxf>(input));
  gpufft::BandwidthFft3D ours(dev, shape, Direction::Forward);
  ours.execute(data);
  dev.d2h(std::span<cxf>(out), data);
  EXPECT_LT(rel_l2_error<float>(out, ref), bound) << "bandwidth plan";

  dev.h2d(data, std::span<const cxf>(input));
  gpufft::ConventionalFft3D conv(dev, shape, Direction::Forward);
  conv.execute(data);
  dev.d2h(std::span<cxf>(out), data);
  EXPECT_LT(rel_l2_error<float>(out, ref), bound) << "conventional";

  dev.h2d(data, std::span<const cxf>(input));
  gpufft::NaiveFft3D naive(dev, shape, Direction::Forward);
  naive.execute(data);
  dev.d2h(std::span<cxf>(out), data);
  EXPECT_LT(rel_l2_error<float>(out, ref), bound) << "naive";
}

TEST(Integration, OutOfCoreMatchesInCorePlan) {
  const std::size_t n = 64;
  const Shape3 shape = cube(n);
  const auto input = random_complex<float>(shape.volume(), 4);

  const auto in_core = run_bandwidth(sim::geforce_8800_gts(), input, shape);

  auto streamed = input;
  sim::Device dev(sim::geforce_8800_gts());
  gpufft::ShardedFft3DPlan plan(
      dev, gpufft::PlanDesc::out_of_core(n, 4, Direction::Forward));
  plan.execute(std::span<cxf>(streamed));

  EXPECT_LT(rel_l2_error<float>(streamed, in_core),
            fft_error_bound<float>(shape.volume()));
}

TEST(Integration, GpuRoundTripAt128) {
  const Shape3 shape = cube(128);
  const auto orig = random_complex<float>(shape.volume(), 5);
  sim::Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(shape.volume());
  dev.h2d(data, std::span<const cxf>(orig));
  gpufft::BandwidthFft3D fwd(dev, shape, Direction::Forward);
  gpufft::BandwidthFft3D inv(dev, shape, Direction::Inverse);
  fwd.execute(data);
  inv.execute(data);
  gpufft::ScaleKernel scale(data, shape.volume(),
                            1.0f / static_cast<float>(shape.volume()), 48);
  dev.launch(scale);
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), data);
  EXPECT_LT(rel_l2_error<float>(out, orig),
            fft_error_bound<float>(shape.volume()));
}

TEST(Integration, SimulatedTimeScalesWithVolume) {
  const auto input64 = random_complex<float>(64 * 64 * 64, 6);
  const auto input128 = random_complex<float>(128 * 128 * 128, 7);
  double ms64 = 0.0;
  double ms128 = 0.0;
  run_bandwidth(sim::geforce_8800_gt(), input64, cube(64), &ms64);
  run_bandwidth(sim::geforce_8800_gt(), input128, cube(128), &ms128);
  // 8x the data: between 4x and 16x the time (launch overheads at the
  // small end, log factors at the large end).
  EXPECT_GT(ms128, 4.0 * ms64);
  EXPECT_LT(ms128, 16.0 * ms64);
}

TEST(Integration, FasterCardIsFasterEndToEnd) {
  const Shape3 shape = cube(128);
  const auto input = random_complex<float>(shape.volume(), 8);
  double gt = 0.0;
  double gtx = 0.0;
  run_bandwidth(sim::geforce_8800_gt(), input, shape, &gt);
  run_bandwidth(sim::geforce_8800_gtx(), input, shape, &gtx);
  EXPECT_LT(gtx, gt);  // on-board: more bandwidth wins
}

}  // namespace
}  // namespace repro
