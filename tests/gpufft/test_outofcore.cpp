// Section 3.3 out-of-core FFT: correctness against the host plan and the
// structural properties of the streamed two-phase algorithm, run by
// ShardedFft3DPlan on one bare card (PlanDesc::out_of_core).
#include <gtest/gtest.h>

#include <memory>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"

namespace repro::gpufft {
namespace {

/// The out-of-core plan on `dev`: a group of one borrowing the card.
ShardedFft3DPlan out_of_core(Device& dev, std::size_t n, std::size_t splits,
                             Direction dir) {
  return ShardedFft3DPlan(dev, PlanDesc::out_of_core(n, splits, dir));
}

TEST(OutOfCore, MatchesHostPlan128) {
  const std::size_t n = 128;
  const Shape3 shape = cube(n);
  auto data = random_complex<float>(shape.volume(), 11);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host_plan(shape, Direction::Forward);
  host_plan.execute(ref);

  Device dev(sim::geforce_8800_gts());
  auto plan = out_of_core(dev, n, /*splits=*/8, Direction::Forward);
  plan.execute(std::span<cxf>(data));
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(OutOfCore, MatchesHostPlanSplits4) {
  const std::size_t n = 64;
  const Shape3 shape = cube(n);
  auto data = random_complex<float>(shape.volume(), 12);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host_plan(shape, Direction::Forward);
  host_plan.execute(ref);

  Device dev(sim::geforce_8800_gt());
  auto plan = out_of_core(dev, n, /*splits=*/4, Direction::Forward);
  plan.execute(std::span<cxf>(data));
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(OutOfCore, InverseDirection) {
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 13);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host_plan(cube(n), Direction::Inverse);
  host_plan.execute(ref);

  Device dev(sim::geforce_8800_gtx());
  auto plan = out_of_core(dev, n, 4, Direction::Inverse);
  plan.execute(std::span<cxf>(data));
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(n * n * n));
}

TEST(OutOfCore, TimingBucketsAllPositive) {
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 14);
  Device dev(sim::geforce_8800_gt());
  auto plan = out_of_core(dev, n, 4, Direction::Forward);
  const auto timing = plan.execute(std::span<cxf>(data));
  ASSERT_EQ(timing.devices.size(), 1u);
  const ShardTiming& t = timing.devices[0];
  EXPECT_GT(t.h2d1_ms, 0.0);
  EXPECT_GT(t.fft1_ms, 0.0);
  EXPECT_GT(t.twiddle_ms, 0.0);
  EXPECT_GT(t.d2h1_ms, 0.0);
  EXPECT_GT(t.h2d2_ms, 0.0);
  EXPECT_GT(t.fft2_ms, 0.0);
  EXPECT_GT(t.d2h2_ms, 0.0);
  EXPECT_NEAR(t.busy_ms(),
              t.h2d1_ms + t.fft1_ms + t.twiddle_ms + t.d2h1_ms + t.h2d2_ms +
                  t.fft2_ms + t.d2h2_ms,
              1e-9);
}

TEST(OutOfCore, TransferDominatedOnGen1) {
  // Table 12: on the PCIe 1.1 GTX, transfers dwarf the on-device FFT time.
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 15);
  Device dev(sim::geforce_8800_gtx());
  auto plan = out_of_core(dev, n, 4, Direction::Forward);
  const ShardTiming t = plan.execute(std::span<cxf>(data)).devices[0];
  const double transfer =
      t.h2d1_ms + t.d2h1_ms + t.h2d2_ms + t.d2h2_ms;
  EXPECT_GT(transfer, t.fft1_ms + t.fft2_ms);
}

TEST(OutOfCore, DataCrossesTheLinkTwiceEachWay) {
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 16);
  Device dev(sim::geforce_8800_gt());
  auto plan = out_of_core(dev, n, 4, Direction::Forward);
  dev.reset_clock();
  plan.execute(std::span<cxf>(data));
  const std::uint64_t volume_bytes = n * n * n * sizeof(cxf);
  EXPECT_EQ(dev.h2d_bytes(), 2 * volume_bytes);
  EXPECT_EQ(dev.d2h_bytes(), 2 * volume_bytes);
}

TEST(OutOfCore, TimelineMatchesTheRecordedSchedule) {
  // Golden schedule: 64^3, 4 splits, forward, on a bare 8800 GTS. The
  // constants were recorded from the dedicated single-card executor this
  // plan replaced, so the one-member run must reproduce it to the bit.
  const std::size_t n = 64;
  auto data = random_complex<float>(n * n * n, 31);
  Device dev(sim::geforce_8800_gts());
  auto plan = out_of_core(dev, n, 4, Direction::Forward);
  const ShardedTiming timing = plan.execute(std::span<cxf>(data));
  const ShardTiming& t = timing.devices[0];
  EXPECT_EQ(timing.makespan_ms, 6.7771760106737329);
  EXPECT_EQ(t.h2d1_ms, 1.6825243761996134);
  EXPECT_EQ(t.fft1_ms, 0.60178710765332333);
  EXPECT_EQ(t.twiddle_ms, 0.11736726335520095);
  EXPECT_EQ(t.d2h1_ms, 1.7071185336048873);
  EXPECT_EQ(t.h2d2_ms, 0.72252437619961596);
  EXPECT_EQ(t.fft2_ms, 0.23873582005623192);
  EXPECT_EQ(t.d2h2_ms, 1.7071185336048873);
  // Plan construction's table uploads included.
  EXPECT_EQ(dev.history().size(), 40u);
  EXPECT_EQ(dev.h2d_bytes(), 4194944u);
  EXPECT_EQ(dev.d2h_bytes(), 4194304u);
  EXPECT_EQ(dev.elapsed_ms(), 6.8172988513647121);

  // A batch runs its volumes back to back, each streamed internally.
  auto a = random_complex<float>(n * n * n, 32);
  auto b = random_complex<float>(n * n * n, 33);
  const std::span<cxf> volumes[] = {a, b};
  dev.reset_clock();
  plan.execute_batch_host(volumes);
  EXPECT_EQ(plan.last_total_ms(), 13.554352021347412);
}

TEST(OutOfCore, RejectsBadGeometry) {
  Device dev(sim::geforce_8800_gt());
  EXPECT_THROW(out_of_core(dev, 63, 4, Direction::Forward), Error);
  EXPECT_THROW(out_of_core(dev, 64, 3, Direction::Forward), Error);
}

TEST(OutOfCore, FullVolumeWouldNotFitButSlabDoes) {
  // The honest reason this algorithm exists: a 512^3 in-core plan cannot
  // allocate on a 512 MB card, but the 512x512x64 slab machinery can.
  Device dev(sim::geforce_8800_gts());
  EXPECT_THROW(
      {
        auto buf = dev.alloc<cxf>(std::size_t{512} * 512 * 512);
        (void)buf;
      },
      sim::OutOfDeviceMemory);
  EXPECT_NO_THROW(out_of_core(dev, 512, 8, Direction::Forward));
}

TEST(OutOfCore, RegistryBuildsTheBorrowedCardPlan) {
  Device dev(sim::geforce_8800_gts());
  dev.set_ordinal(3);
  const PlanDesc desc = PlanDesc::out_of_core(32, 4, Direction::Forward);
  auto plan = std::dynamic_pointer_cast<ShardedFft3DPlan>(
      PlanRegistry::of(dev).get_or_create(desc));
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->desc(), desc);
  EXPECT_EQ(&plan->device(), &dev);
  // The group of one borrows the card as it is: no bridge derate, no new
  // ordinal.
  ASSERT_EQ(plan->group().size(), 1u);
  EXPECT_EQ(&plan->group().device(0), &dev);
  EXPECT_EQ(dev.ordinal(), 3);
  EXPECT_EQ(dev.spec(), sim::geforce_8800_gts());
  EXPECT_EQ(plan.get(), PlanRegistry::of(dev).get_or_create(desc).get());
}

TEST(OutOfCore, DeviceDestroyedWithCachedPlans) {
  // The registry lives in the device, the plan in the registry and the
  // borrowing group in the plan: destroying the device tears them down
  // in that order, without touching freed memory (run under ASan).
  auto dev = std::make_unique<Device>(sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(*dev);
  for (const std::size_t splits : {2u, 4u}) {
    auto plan = reg.get_or_create(
        PlanDesc::out_of_core(32, splits, Direction::Forward));
    auto data = random_complex<float>(32 * 32 * 32, 17 + splits);
    plan->execute_host(std::span<cxf>(data));
  }
  EXPECT_GE(reg.size(), 2u);
  dev.reset();
  EXPECT_FALSE(dev);
}

TEST(OutOfCore, LostCardRaisesDeviceLost) {
  Device dev(sim::geforce_8800_gts());
  auto plan = out_of_core(dev, 32, 4, Direction::Forward);
  dev.faults().arm(sim::FaultKind::DeviceLost, 1);
  auto data = random_complex<float>(32 * 32 * 32, 18);
  EXPECT_THROW(plan.execute(std::span<cxf>(data)), sim::DeviceLostError);
  ASSERT_TRUE(dev.lost());
  // Once the card is gone, every later run fails typed before any work.
  EXPECT_THROW(plan.execute(std::span<cxf>(data)), sim::DeviceLostError);
}

}  // namespace
}  // namespace repro::gpufft
