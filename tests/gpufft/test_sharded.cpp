// Multi-device sharded 3-D FFT: bit-exact equivalence with the
// single-device out-of-core plan, the pinned degenerate group-of-one
// timeline, exchange accounting, exact pricing on the timing twin, and
// the registry front door.
#include "gpufft/sharded.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"
#include "gpufft/batch_sharded.h"
#include "gpufft/planner.h"
#include "gpufft/real3d.h"
#include "gpufft/registry.h"
#include "sim/fault.h"
#include "sim/topology/pcie_tree.h"
#include "sim/topology/peer_mesh.h"
#include "sim/topology/torus2d.h"

namespace repro::gpufft {
namespace {

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

/// The single-device reference: the registry's out-of-core plan with the
/// same decimation factor (the arithmetic the sharded plan distributes).
std::vector<cxf> out_of_core_reference(std::size_t n, std::size_t shards,
                                       Direction dir,
                                       const std::vector<cxf>& input) {
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::out_of_core(n, shards, dir));
  std::vector<cxf> data = input;
  plan->execute_host(std::span<cxf>(data));
  return data;
}

std::vector<cxf> sharded_run(sim::DeviceGroup& group, std::size_t n,
                             std::size_t shards, Direction dir,
                             const std::vector<cxf>& input) {
  ShardedFft3DPlan plan(group, n, shards, dir);
  std::vector<cxf> data = input;
  plan.execute(std::span<cxf>(data));
  return data;
}

TEST(Sharded, BitIdenticalToOutOfCore64AllDeviceCounts) {
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 21);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = out_of_core_reference(n, shards, dir, input);
    for (const std::size_t devices : {1u, 2u, 4u}) {
      sim::DeviceGroup group(devices, sim::geforce_8800_gts());
      const auto out = sharded_run(group, n, shards, dir, input);
      EXPECT_TRUE(bit_identical(out, ref))
          << "devices=" << devices
          << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
    }
  }
}

TEST(Sharded, BitIdenticalToOutOfCore128AllDeviceCounts) {
  const std::size_t n = 128;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 22);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = out_of_core_reference(n, shards, dir, input);
    for (const std::size_t devices : {1u, 2u, 4u}) {
      sim::DeviceGroup group(devices, sim::geforce_8800_gts());
      const auto out = sharded_run(group, n, shards, dir, input);
      EXPECT_TRUE(bit_identical(out, ref))
          << "devices=" << devices
          << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
    }
  }
}

TEST(Sharded, MixedSpecGroupIsBitIdenticalToo) {
  // An 8800 GT (14 SMs) next to an 8800 GTX (16 SMs): grid sizes differ
  // per card but the kernels' functional math is partition-independent,
  // so a heterogeneous fleet still reproduces the reference bit for bit.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 23);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = out_of_core_reference(n, shards, dir, input);
    sim::DeviceGroup group({sim::geforce_8800_gt(), sim::geforce_8800_gtx()});
    const auto out = sharded_run(group, n, shards, dir, input);
    EXPECT_TRUE(bit_identical(out, ref));
  }
}

TEST(Sharded, MatchesHostPlanL2) {
  // Independent anchor: agreement with the host oracle, not just with the
  // out-of-core plan.
  const std::size_t n = 64;
  const Shape3 shape = cube(n);
  auto data = random_complex<float>(shape.volume(), 24);
  std::vector<cxf> ref = data;
  fft::Plan3D<float> host_plan(shape, Direction::Forward);
  host_plan.execute(ref);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, 4, Direction::Forward);
  plan.execute(std::span<cxf>(data));
  EXPECT_LT(rel_l2_error<float>(data, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(Sharded, GroupOfOnePinsTheOutOfCoreTimeline) {
  // The degenerate-path guard: an owned group of one must produce the
  // exact event timeline of the out-of-core plan on a bare device (a
  // group of one borrowing that card) — same makespan, same transfer
  // times and bytes, same launch sequence.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 25);

  sim::DeviceGroup group(1, sim::geforce_8800_gts());
  ShardedFft3DPlan sharded(group, n, shards, Direction::Forward);
  Device bare(sim::geforce_8800_gts());
  ShardedFft3DPlan reference(
      bare, PlanDesc::out_of_core(n, shards, Direction::Forward));

  group.device(0).reset_clock();
  bare.reset_clock();
  std::vector<cxf> a = input;
  std::vector<cxf> b = input;
  const auto ta = sharded.execute(std::span<cxf>(a));
  const auto tb = reference.execute(std::span<cxf>(b));

  EXPECT_TRUE(bit_identical(a, b));
  EXPECT_EQ(ta.makespan_ms, tb.makespan_ms);
  Device& d = group.device(0);
  EXPECT_EQ(d.elapsed_ms(), bare.elapsed_ms());
  EXPECT_EQ(d.h2d_ms(), bare.h2d_ms());
  EXPECT_EQ(d.d2h_ms(), bare.d2h_ms());
  EXPECT_EQ(d.h2d_bytes(), bare.h2d_bytes());
  EXPECT_EQ(d.d2h_bytes(), bare.d2h_bytes());
  ASSERT_EQ(d.history().size(), bare.history().size());
  for (std::size_t i = 0; i < d.history().size(); ++i) {
    EXPECT_EQ(d.history()[i].name, bare.history()[i].name);
    EXPECT_EQ(d.history()[i].total_ms, bare.history()[i].total_ms);
  }
  // And the per-bucket sums coincide with the out-of-core buckets.
  ASSERT_EQ(ta.devices.size(), 1u);
  ASSERT_EQ(tb.devices.size(), 1u);
  EXPECT_EQ(ta.devices[0].h2d1_ms, tb.devices[0].h2d1_ms);
  EXPECT_EQ(ta.devices[0].fft1_ms, tb.devices[0].fft1_ms);
  EXPECT_EQ(ta.devices[0].twiddle_ms, tb.devices[0].twiddle_ms);
  EXPECT_EQ(ta.devices[0].d2h1_ms, tb.devices[0].d2h1_ms);
  EXPECT_EQ(ta.devices[0].h2d2_ms, tb.devices[0].h2d2_ms);
  EXPECT_EQ(ta.devices[0].fft2_ms, tb.devices[0].fft2_ms);
  EXPECT_EQ(ta.devices[0].d2h2_ms, tb.devices[0].d2h2_ms);
}

TEST(Sharded, ExchangeAndByteAccounting) {
  const std::size_t n = 64;
  const std::uint64_t volume_bytes = n * n * n * sizeof(cxf);
  auto data = random_complex<float>(n * n * n, 26);
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, 4, Direction::Forward);
  group.reset_clocks();
  const auto t = plan.execute(std::span<cxf>(data));

  // Across the fleet the data crosses PCIe twice each way, exactly as on
  // one card; the exchange is the inner d2h + h2d pair.
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  for (std::size_t d = 0; d < group.size(); ++d) {
    up += group.device(d).h2d_bytes();
    down += group.device(d).d2h_bytes();
  }
  EXPECT_EQ(up, 2 * volume_bytes);
  EXPECT_EQ(down, 2 * volume_bytes);
  EXPECT_EQ(t.exchange_bytes(), 2 * volume_bytes);
  EXPECT_GT(t.exchange_fraction(), 0.0);
  EXPECT_LT(t.exchange_fraction(), 1.0);
  EXPECT_GT(t.barrier_ms, 0.0);
  EXPECT_GE(t.makespan_ms, t.max_busy_ms() / 2.0);

  // The host staging volume is part of the in-flight footprint.
  EXPECT_GE(group.peak_bytes_in_flight(), volume_bytes);
}

/// The priced single-volume makespan against a run of `plan` on the live
/// group from an idle fleet (the origin pricing assumes). Pricing first
/// and executing second gives both fleets the same allocation history.
void expect_priced_equals_executed(sim::DeviceGroup& group,
                                   ShardedFft3DPlan& plan,
                                   std::vector<cxf> data) {
  const double priced =
      priced_sharded_ms(group, plan.desc(), plan.decomposition(), 1);
  group.reset_clocks();
  EXPECT_EQ(plan.execute(std::span<cxf>(data)).makespan_ms, priced);
}

TEST(Sharded, PricedMakespanIsExactOnSerialCards) {
  // 1-DMA cards: the engine FIFOs serialize each chain.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto data = random_complex<float>(n * n * n, 27);
  for (const std::size_t devices : {1u, 2u}) {
    SCOPED_TRACE("devices=" + std::to_string(devices));
    sim::DeviceGroup group(devices, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
    expect_priced_equals_executed(group, plan, data);
  }
}

TEST(Sharded, PricedMakespanIsExactOnDualEngineCards) {
  // The GTX 280 has two copy engines, so each card overlaps its chains.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  sim::DeviceGroup group(2, sim::geforce_gtx_280());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  expect_priced_equals_executed(group, plan,
                                random_complex<float>(n * n * n, 28));
}

TEST(Sharded, RejectsBadGeometry) {
  sim::DeviceGroup group(2, sim::geforce_8800_gt());
  // Non-pow2 n, bad factor: as out-of-core.
  EXPECT_THROW(ShardedFft3DPlan(group, 63, 4, Direction::Forward), Error);
  EXPECT_THROW(ShardedFft3DPlan(group, 64, 3, Direction::Forward), Error);
  // A fleet that divides neither phase's work is not an error: the plan
  // runs on the largest usable member prefix (here 2 of 3), exactly as
  // the failover path would after losing a card.
  sim::DeviceGroup three(3, sim::geforce_8800_gt());
  ShardedFft3DPlan prefix(three, 64, 4, Direction::Forward);
  auto input = random_complex<float>(64 * 64 * 64, 99);
  auto expect = input;
  ShardedFft3DPlan pair(group, 64, 4, Direction::Forward);
  pair.execute(std::span<cxf>(expect));
  auto got = input;
  const auto t = prefix.execute(std::span<cxf>(got));
  EXPECT_TRUE(bit_identical(got, expect));
  EXPECT_EQ(t.devices[2].busy_ms(), 0.0);  // the third card sat idle
  // Device-resident execute is not a thing for a distributed volume.
  ShardedFft3DPlan plan(group, 64, 4, Direction::Forward);
  auto buf = group.device(0).alloc<cxf>(64);
  EXPECT_THROW(plan.execute(buf), Error);
}

TEST(Sharded, RegistryFrontDoorServesShardedPlans) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::sharded3d(64, 4, Direction::Forward);
  auto plan = reg.get_or_create(desc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->desc().kind, PlanKind::Sharded3D);
  EXPECT_EQ(reg.misses(), 1u);
  EXPECT_EQ(reg.get_or_create(desc), plan);  // shared instance
  EXPECT_EQ(reg.hits(), 1u);

  // The front-door plan runs through the generic host entry point.
  auto data = random_complex<float>(64 * 64 * 64, 29);
  const auto steps = plan->execute_host(std::span<cxf>(data));
  EXPECT_EQ(steps.size(), 7u);
  EXPECT_GT(plan->last_total_ms(), 0.0);

  // A single-device registry cannot serve a fleet-spanning description.
  EXPECT_THROW(PlanRegistry::of(group.device(0)).get_or_create(desc), Error);

  // Non-sharded descriptions still work through a group registry (built
  // on the group's first device).
  auto small = reg.get_or_create(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward));
  ASSERT_NE(small, nullptr);
  EXPECT_EQ(&small->device(), &group.device(0));
}

TEST(Sharded, BatchHostRunsVolumesBackToBack) {
  const std::size_t n = 32;
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, 4, Direction::Forward);
  auto v0 = random_complex<float>(n * n * n, 30);
  auto v1 = random_complex<float>(n * n * n, 31);
  auto s0 = random_complex<float>(n * n * n, 30);
  auto s1 = random_complex<float>(n * n * n, 31);
  plan.execute(std::span<cxf>(s0));
  plan.execute(std::span<cxf>(s1));

  std::vector<std::span<cxf>> volumes{std::span<cxf>(v0),
                                      std::span<cxf>(v1)};
  const auto steps = plan.execute_batch_host(volumes);
  EXPECT_EQ(steps.size(), 7u);
  EXPECT_TRUE(bit_identical(v0, s0));
  EXPECT_TRUE(bit_identical(v1, s1));
  EXPECT_GT(plan.last_total_ms(), 0.0);
}

// ---------------------------------------------------------------------
// One volume loop: a lone volume is a batch of one
// ---------------------------------------------------------------------

/// `a` and `b` ran the same volume on equal fleets `ga` and `gb`: same
/// makespan, every bucket, and every member's launch history.
void expect_same_run(const ShardedTiming& a, sim::DeviceGroup& ga,
                     const ShardedTiming& b, sim::DeviceGroup& gb) {
  EXPECT_EQ(a.makespan_ms, b.makespan_ms);
  EXPECT_EQ(a.barrier_ms, b.barrier_ms);
  ASSERT_EQ(a.devices.size(), b.devices.size());
  for (std::size_t d = 0; d < a.devices.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    const ShardTiming& x = a.devices[d];
    const ShardTiming& y = b.devices[d];
    EXPECT_EQ(x.h2d1_ms, y.h2d1_ms);
    EXPECT_EQ(x.fft1_ms, y.fft1_ms);
    EXPECT_EQ(x.twiddle_ms, y.twiddle_ms);
    EXPECT_EQ(x.d2h1_ms, y.d2h1_ms);
    EXPECT_EQ(x.h2d2_ms, y.h2d2_ms);
    EXPECT_EQ(x.fft2_ms, y.fft2_ms);
    EXPECT_EQ(x.d2h2_ms, y.d2h2_ms);
    EXPECT_EQ(x.exchange_bytes, y.exchange_bytes);
    const auto& ha = ga.device(d).history();
    const auto& hb = gb.device(d).history();
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i) {
      EXPECT_EQ(ha[i].name, hb[i].name);
      EXPECT_EQ(ha[i].total_ms, hb[i].total_ms);
    }
  }
}

TEST(Sharded, LoneBatchReproducesExecuteExactly) {
  const std::size_t n = 64;
  const auto input = random_complex<float>(n * n * n, 34);
  const std::shared_ptr<const sim::Topology> tree;
  const std::shared_ptr<const sim::Topology> mesh =
      std::make_shared<sim::PeerMeshTopology>(4);
  for (const auto& topo : {tree, mesh}) {
    SCOPED_TRACE(topo ? "mesh" : "tree");
    const std::size_t devices = topo ? 4 : 2;
    sim::DeviceGroup ga(devices, sim::geforce_8800_gts(), topo);
    sim::DeviceGroup gb(devices, sim::geforce_8800_gts(), topo);
    ShardedFft3DPlan pa(ga, n, 4, Direction::Forward);
    ShardedFft3DPlan pb(gb, n, 4, Direction::Forward);
    std::vector<cxf> a = input;
    std::vector<cxf> b = input;
    const ShardedTiming ta = pa.execute(std::span<cxf>(a));
    const std::span<cxf> one[] = {std::span<cxf>(b)};
    const ShardedBatchTiming tb = pb.execute_batch(one);
    EXPECT_TRUE(bit_identical(a, b));
    expect_same_run(ta, ga, tb.total, gb);
    EXPECT_EQ(pb.last_layout().exchange, pa.last_layout().exchange);
  }
}

TEST(Sharded, LoneBatchPeaksLikeExecute) {
  // A batch of one holds one volume context and no extra host staging
  // volume, so its in-flight peak is execute()'s (2 x 8800 GTS, 64^3 / 4,
  // host-staged).
  const std::size_t n = 64;
  const auto input = random_complex<float>(n * n * n, 33);
  const auto peak = [&](bool batch) {
    sim::DeviceGroup group(2, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(group, n, 4, Direction::Forward);
    std::vector<cxf> data = input;
    if (batch) {
      const std::span<cxf> one[] = {std::span<cxf>(data)};
      plan.execute_batch(one);
    } else {
      plan.execute(std::span<cxf>(data));
    }
    return group.peak_bytes_in_flight();
  };
  EXPECT_EQ(peak(true), peak(false));
}

TEST(Sharded, LoneVolumeLosingACardInPhaseTwoRerunsOnlyPhaseTwo) {
  // Host-staged phase 1 leaves every staged plane in host memory, so a
  // card lost in phase 2 costs only phase 2: the survivors re-run it
  // from host staging, and phase 1 ran once.
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 35);

  sim::DeviceGroup clean(2, sim::geforce_8800_gts());
  ShardedFft3DPlan cplan(clean, n, shards, Direction::Forward);
  clean.faults(1).disarm_all();
  std::vector<cxf> want = input;
  const ShardedTiming tc = cplan.execute(std::span<cxf>(want));
  // Member 1's last occurrence is its last phase-2 download.
  const std::uint64_t last =
      clean.faults(1).occurrences(sim::FaultKind::DeviceLost);
  ASSERT_GT(last, 0u);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
  group.faults(1).arm(sim::FaultKind::DeviceLost, last);
  const RecoveryScope scope;
  std::vector<cxf> got = input;
  const ShardedTiming t = plan.execute(std::span<cxf>(got));
  EXPECT_TRUE(bit_identical(got, want));
  EXPECT_EQ(scope.delta().device_lost_failovers, 1u);
  EXPECT_EQ(group.alive_count(), 1u);
  EXPECT_EQ(plan.last_layout().members, 1u);
  for (std::size_t d = 0; d < 2; ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    EXPECT_EQ(t.devices[d].h2d1_ms, tc.devices[d].h2d1_ms);
    EXPECT_EQ(t.devices[d].fft1_ms, tc.devices[d].fft1_ms);
    EXPECT_EQ(t.devices[d].twiddle_ms, tc.devices[d].twiddle_ms);
    EXPECT_EQ(t.devices[d].d2h1_ms, tc.devices[d].d2h1_ms);
  }
}

// ---------------------------------------------------------------------
// Interconnect topologies: peer exchange and the pencil decomposition
// ---------------------------------------------------------------------

/// rows x cols covering `devices` exactly, squarest-first.
std::shared_ptr<sim::Torus2DTopology> torus_for(std::size_t devices) {
  std::size_t rows = 1;
  for (std::size_t r = 1; r * r <= devices; ++r) {
    if (devices % r == 0) rows = r;
  }
  return std::make_shared<sim::Torus2DTopology>(rows, devices / rows);
}

TEST(ShardedTopology, PeerFabricsBitIdenticalAcrossDeviceCounts) {
  // The tentpole acceptance sweep: every topology, every fleet size,
  // bit-identical to the single-device out-of-core reference. shards=16
  // on n=64 gives local_nz=4, so slab saturates at 4 members and the
  // larger meshes/tori exercise the pencil decomposition (py up to 16).
  const std::size_t n = 64;
  const std::size_t shards = 16;
  const auto input = random_complex<float>(n * n * n, 41);
  const auto ref =
      out_of_core_reference(n, shards, Direction::Forward, input);
  for (const std::size_t devices : {1u, 2u, 4u, 8u, 16u, 64u}) {
    {
      sim::DeviceGroup mesh(devices, sim::geforce_8800_gts(),
                            std::make_shared<sim::PeerMeshTopology>(devices));
      const auto out = sharded_run(mesh, n, shards, Direction::Forward, input);
      EXPECT_TRUE(bit_identical(out, ref)) << "mesh devices=" << devices;
    }
    {
      sim::DeviceGroup torus(devices, sim::geforce_8800_gts(),
                             torus_for(devices));
      const auto out =
          sharded_run(torus, n, shards, Direction::Forward, input);
      EXPECT_TRUE(bit_identical(out, ref)) << "torus devices=" << devices;
    }
  }
}

TEST(ShardedTopology, NonDividingFleetsFallBackToThePrefixBitIdentically) {
  // N = 3, 5, 6 divide neither shards=4 nor local_nz: the plan runs on
  // the largest usable prefix (2 or 4 cards) with peer legs, and the
  // result must not care.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto input = random_complex<float>(n * n * n, 42);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    const auto ref = out_of_core_reference(n, shards, dir, input);
    for (const std::size_t devices : {3u, 5u, 6u}) {
      sim::DeviceGroup mesh(devices, sim::geforce_8800_gts(),
                            std::make_shared<sim::PeerMeshTopology>(devices));
      EXPECT_TRUE(bit_identical(sharded_run(mesh, n, shards, dir, input), ref))
          << "mesh devices=" << devices;
      sim::DeviceGroup torus(devices, sim::geforce_8800_gts(),
                             torus_for(devices));
      EXPECT_TRUE(
          bit_identical(sharded_run(torus, n, shards, dir, input), ref))
          << "torus devices=" << devices;
    }
  }
}

TEST(ShardedTopology, SlabAndPencilAgreeBitForBit) {
  // The decomposition is a timing choice only: force both on the same
  // mesh and compare against the reference and each other.
  const std::size_t n = 64;
  const std::size_t shards = 16;
  const auto input = random_complex<float>(n * n * n, 43);
  const auto ref =
      out_of_core_reference(n, shards, Direction::Forward, input);
  sim::DeviceGroup mesh(8, sim::geforce_8800_gts(),
                        std::make_shared<sim::PeerMeshTopology>(8));
  ShardedFft3DPlan plan(mesh, n, shards, Direction::Forward);

  plan.set_decomposition(Decomposition::Slab);
  auto a = input;
  plan.execute(std::span<cxf>(a));
  EXPECT_EQ(plan.last_layout().decomp, Decomposition::Slab);
  EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
  EXPECT_EQ(plan.last_layout().members, 4u);  // slab caps at local_nz

  plan.set_decomposition(Decomposition::Pencil);
  auto b = input;
  plan.execute(std::span<cxf>(b));
  EXPECT_EQ(plan.last_layout().decomp, Decomposition::Pencil);
  EXPECT_EQ(plan.last_layout().members, 8u);  // pencil uses the full mesh
  EXPECT_EQ(plan.last_layout().y_blocks, 2u);

  EXPECT_TRUE(bit_identical(a, ref));
  EXPECT_TRUE(bit_identical(b, ref));
}

TEST(ShardedTopology, LayoutResolutionFollowsTheTopology) {
  const std::size_t n = 64;
  const std::size_t shards = 16;
  // Trees never see peer legs, whatever the preference.
  const sim::PcieTreeTopology tree(8);
  const ShardLayout lt = shard_layout(tree, n, shards, 8,
                                      Decomposition::Pencil);
  EXPECT_EQ(lt.decomp, Decomposition::Slab);
  EXPECT_EQ(lt.exchange, Exchange::HostStaged);
  EXPECT_EQ(lt.members, 4u);
  // A mesh of 64 resolves the full pencil grid.
  const sim::PeerMeshTopology mesh(64);
  const ShardLayout lm = shard_layout(mesh, n, shards, 64,
                                      Decomposition::Pencil);
  EXPECT_EQ(lm.decomp, Decomposition::Pencil);
  EXPECT_EQ(lm.members, 64u);
  EXPECT_EQ(lm.y_blocks, 16u);
  EXPECT_EQ(lm.phase1_members, 16u);
  // A single card is always the host-staged degenerate layout.
  const ShardLayout l1 = shard_layout(mesh, n, shards, 1,
                                      Decomposition::Pencil);
  EXPECT_EQ(l1.members, 1u);
  EXPECT_EQ(l1.exchange, Exchange::HostStaged);
}

TEST(ShardedTopology, PlannerPrefersPencilWhereItScales) {
  // On a 16-wide mesh the slab layout strands 12 of 16 cards; pricing
  // must steer the constructor to pencil. A 4-wide mesh has no pencil
  // option at all.
  const sim::GpuSpec spec = sim::geforce_8800_gts();
  const PlanDesc desc = PlanDesc::sharded3d(64, 16, Direction::Forward);
  sim::DeviceGroup mesh16(16, spec,
                          std::make_shared<sim::PeerMeshTopology>(16));
  EXPECT_EQ(choose_decomposition(mesh16, desc), Decomposition::Pencil);
  sim::DeviceGroup mesh4(4, spec, std::make_shared<sim::PeerMeshTopology>(4));
  EXPECT_EQ(choose_decomposition(mesh4, desc), Decomposition::Slab);
  // The constructor applies the same call on peer-capable groups.
  ShardedFft3DPlan plan(mesh16, 64, 16, Direction::Forward);
  EXPECT_EQ(plan.decomposition(), Decomposition::Pencil);
}

TEST(ShardedPricing, SlabAndPencilOnMeshAndTorusAreExact) {
  // The constructor prices slab, then pencil, on the timing twin; running
  // both in that order on the live group must reproduce each price to
  // the last bit.
  const std::size_t n = 64;
  const std::size_t shards = 16;
  const auto data = random_complex<float>(n * n * n, 44);
  const std::shared_ptr<const sim::Topology> fabrics[] = {
      std::make_shared<sim::PeerMeshTopology>(8),
      std::make_shared<sim::Torus2DTopology>(2, 4),
  };
  for (const auto& topo : fabrics) {
    SCOPED_TRACE(topo->kind());
    sim::DeviceGroup group(8, sim::geforce_8800_gts(), topo);
    ShardedFft3DPlan plan(group, n, shards, Direction::Forward);
    for (const Decomposition d :
         {Decomposition::Slab, Decomposition::Pencil}) {
      plan.set_decomposition(d);
      expect_priced_equals_executed(group, plan, data);
      EXPECT_EQ(plan.last_layout().decomp, d);
      EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
    }
  }
}

TEST(ShardedPricing, LeavesTheLiveGroupUntouched) {
  // Two identical fleets run the same volume; one is priced first (every
  // candidate of a pipelined batch, and deal vs shard). Output bits,
  // timing buckets, launch history, fault occurrences and the in-flight
  // footprint must not tell them apart.
  const std::size_t n = 32;
  const std::size_t shards = 4;
  const PlanDesc desc = PlanDesc::sharded3d(n, shards, Direction::Forward);
  const auto input = random_complex<float>(n * n * n, 50);
  struct Run {
    std::vector<cxf> out;
    ShardedTiming timing;
    std::vector<std::vector<sim::LaunchResult>> history;
    std::vector<std::uint64_t> occurrences;
    std::size_t peak = 0;
  };
  const auto run = [&](bool price) {
    sim::DeviceGroup group(4, sim::geforce_gtx_280(),
                           std::make_shared<sim::PeerMeshTopology>(4));
    for (std::size_t d = 0; d < group.size(); ++d) group.faults(d);
    ShardedFft3DPlan plan(group, desc);
    if (price) {
      priced_issue_order(group, desc, plan.decomposition(), 3);
      choose_batch_strategy(group, desc, 4);
    }
    Run r;
    r.out = input;
    r.timing = plan.execute(std::span<cxf>(r.out));
    for (std::size_t d = 0; d < group.size(); ++d) {
      r.history.push_back(group.device(d).history());
      for (const sim::FaultKind k : sim::kAllFaultKinds) {
        r.occurrences.push_back(group.faults(d).occurrences(k));
      }
    }
    r.peak = group.peak_bytes_in_flight();
    return r;
  };
  const Run priced = run(true);
  const Run plain = run(false);
  EXPECT_TRUE(bit_identical(priced.out, plain.out));
  EXPECT_EQ(priced.timing.makespan_ms, plain.timing.makespan_ms);
  EXPECT_EQ(priced.timing.barrier_ms, plain.timing.barrier_ms);
  ASSERT_EQ(priced.timing.devices.size(), plain.timing.devices.size());
  for (std::size_t d = 0; d < plain.timing.devices.size(); ++d) {
    const ShardTiming& a = priced.timing.devices[d];
    const ShardTiming& b = plain.timing.devices[d];
    EXPECT_EQ(a.h2d1_ms, b.h2d1_ms);
    EXPECT_EQ(a.fft1_ms, b.fft1_ms);
    EXPECT_EQ(a.twiddle_ms, b.twiddle_ms);
    EXPECT_EQ(a.d2h1_ms, b.d2h1_ms);
    EXPECT_EQ(a.h2d2_ms, b.h2d2_ms);
    EXPECT_EQ(a.fft2_ms, b.fft2_ms);
    EXPECT_EQ(a.d2h2_ms, b.d2h2_ms);
    EXPECT_EQ(a.exchange_bytes, b.exchange_bytes);
  }
  ASSERT_EQ(priced.history.size(), plain.history.size());
  for (std::size_t d = 0; d < plain.history.size(); ++d) {
    ASSERT_EQ(priced.history[d].size(), plain.history[d].size());
    for (std::size_t i = 0; i < plain.history[d].size(); ++i) {
      EXPECT_EQ(priced.history[d][i].name, plain.history[d][i].name);
      const sim::LaunchResult& a = priced.history[d][i];
      const sim::LaunchResult& b = plain.history[d][i];
      EXPECT_EQ(a.total_ms, b.total_ms);
      EXPECT_EQ(a.mem_ms, b.mem_ms);
      EXPECT_EQ(a.compute_ms, b.compute_ms);
      EXPECT_EQ(a.dram_bytes, b.dram_bytes);
      EXPECT_EQ(a.coalesced_fraction, b.coalesced_fraction);
    }
  }
  EXPECT_EQ(priced.occurrences, plain.occurrences);
  EXPECT_EQ(priced.peak, plain.peak);
}

TEST(ShardedTopology, PeerExchangeSkipsTheHostBridge) {
  // On the mesh the all-to-all rides d2d legs: the PCIe counters see
  // exactly one volume up (phase 1) and one down (phase 2), not two.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const std::uint64_t volume_bytes = n * n * n * sizeof(cxf);
  auto data = random_complex<float>(n * n * n, 45);
  sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                        std::make_shared<sim::PeerMeshTopology>(4));
  ShardedFft3DPlan plan(mesh, n, shards, Direction::Forward);
  mesh.reset_clocks();
  const auto t = plan.execute(std::span<cxf>(data));
  EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
  std::uint64_t up = 0;
  std::uint64_t down = 0;
  for (std::size_t d = 0; d < mesh.size(); ++d) {
    up += mesh.device(d).h2d_bytes();
    down += mesh.device(d).d2h_bytes();
  }
  EXPECT_EQ(up, volume_bytes);
  EXPECT_EQ(down, volume_bytes);
  EXPECT_GT(t.exchange_bytes(), 0u);
}

TEST(ShardedTopology, RealPlanRunsPeerExchangeBitIdentically) {
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const Shape3 shape = cube(n);
  std::vector<float> reals(shape.volume());
  SplitMix64 rng(46);
  for (auto& x : reals) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  const auto padded = pack_real_volume<float>(reals, shape);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    // Reference: the host-staged tree fleet (the PR 3 behavior).
    sim::DeviceGroup tree(2, sim::geforce_8800_gts());
    ShardedFft3DPlan ref_plan(tree, PlanDesc::sharded_real3d(n, shards, dir));
    auto ref = padded;
    ref_plan.execute(std::span<cxf>(ref));

    for (const std::size_t devices : {2u, 4u}) {
      sim::DeviceGroup mesh(devices, sim::geforce_8800_gts(),
                            std::make_shared<sim::PeerMeshTopology>(devices));
      ShardedFft3DPlan plan(mesh, PlanDesc::sharded_real3d(n, shards, dir));
      auto got = padded;
      plan.execute(std::span<cxf>(got));
      EXPECT_TRUE(bit_identical(got, ref))
          << "devices=" << devices
          << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
    }
  }
}

TEST(ShardedTopology, BatchPipelinesOverThePeerFabric) {
  const std::size_t n = 32;
  const std::size_t shards = 4;
  sim::DeviceGroup mesh(4, sim::geforce_8800_gts(),
                        std::make_shared<sim::PeerMeshTopology>(4));
  ShardedFft3DPlan plan(mesh, n, shards, Direction::Forward);
  auto v0 = random_complex<float>(n * n * n, 47);
  auto v1 = random_complex<float>(n * n * n, 48);
  auto v2 = random_complex<float>(n * n * n, 49);
  auto s0 = v0;
  auto s1 = v1;
  auto s2 = v2;
  for (auto* s : {&s0, &s1, &s2}) plan.execute(std::span<cxf>(*s));

  std::vector<std::span<cxf>> volumes{std::span<cxf>(v0), std::span<cxf>(v1),
                                      std::span<cxf>(v2)};
  const auto t = plan.execute_batch(volumes);
  EXPECT_TRUE(bit_identical(v0, s0));
  EXPECT_TRUE(bit_identical(v1, s1));
  EXPECT_TRUE(bit_identical(v2, s2));
  ASSERT_EQ(t.volume_done_ms.size(), 3u);
  EXPECT_GT(t.makespan_ms, 0.0);
  // Pipelining must not be slower than three serial volumes.
  sim::DeviceGroup mesh2(4, sim::geforce_8800_gts(),
                         std::make_shared<sim::PeerMeshTopology>(4));
  ShardedFft3DPlan serial(mesh2, n, shards, Direction::Forward);
  auto w0 = s0;
  auto w1 = s1;
  auto w2 = s2;
  const double t0 = mesh2.elapsed_ms();
  for (auto* w : {&w0, &w1, &w2}) serial.execute(std::span<cxf>(*w));
  EXPECT_LE(t.makespan_ms, (mesh2.elapsed_ms() - t0) * (1.0 + 1e-9));
}

// ---------------------------------------------------------------------
// Golden schedules: the simulated timeline of one run, pinned exactly.
// Output bits alone would not notice a reordered transfer or an extra
// copy; these constants do. Every member of these symmetric fleets runs
// the same schedule, so one row per case pins all of them. n = 64 and
// shards = 4 unless a case says otherwise.
// ---------------------------------------------------------------------

/// One member's pinned schedule.
struct MemberGolden {
  /// h2d1, fft1, twiddle, d2h1, h2d2, fft2, d2h2 (ShardTiming order).
  std::array<double, 7> buckets;
  std::uint64_t exchange_bytes;
  std::uint64_t h2d_bytes;
  std::uint64_t d2h_bytes;
  std::size_t launches;  ///< Device::history() entries
};

struct TimelineGolden {
  double makespan_ms;
  double barrier_ms;
  MemberGolden member;
};

/// Run `plan` once from zeroed clocks and compare every pinned field.
void expect_timeline(sim::DeviceGroup& group, ShardedFft3DPlan& plan,
                     std::vector<cxf> data, const TimelineGolden& g) {
  group.reset_clocks();
  const ShardedTiming t = plan.execute(std::span<cxf>(data));
  EXPECT_EQ(t.makespan_ms, g.makespan_ms);
  EXPECT_EQ(t.barrier_ms, g.barrier_ms);
  ASSERT_EQ(t.devices.size(), group.size());
  for (std::size_t d = 0; d < group.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    const ShardTiming& b = t.devices[d];
    const std::array<double, 7> got{b.h2d1_ms, b.fft1_ms, b.twiddle_ms,
                                    b.d2h1_ms, b.h2d2_ms, b.fft2_ms,
                                    b.d2h2_ms};
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], g.member.buckets[i]) << "bucket " << i;
    }
    EXPECT_EQ(b.exchange_bytes, g.member.exchange_bytes);
    EXPECT_EQ(group.device(d).h2d_bytes(), g.member.h2d_bytes);
    EXPECT_EQ(group.device(d).d2h_bytes(), g.member.d2h_bytes);
    EXPECT_EQ(group.device(d).history().size(), g.member.launches);
  }
}

constexpr std::size_t kTimelineN = 64;
constexpr std::size_t kTimelineShards = 4;

std::vector<cxf> timeline_complex_input() {
  return random_complex<float>(kTimelineN * kTimelineN * kTimelineN, 1201);
}

std::vector<cxf> timeline_real_input() {
  const Shape3 shape = cube(kTimelineN);
  std::vector<float> reals(shape.volume());
  SplitMix64 rng(1202);
  for (auto& x : reals) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return pack_real_volume<float>(reals, shape);
}

std::shared_ptr<sim::PeerMeshTopology> mesh_of(std::size_t k) {
  return std::make_shared<sim::PeerMeshTopology>(k);
}

TEST(ShardedTimeline, ComplexForwardOnTree) {
  sim::DeviceGroup tree(2, sim::geforce_8800_gts());
  ShardedFft3DPlan plan(tree, kTimelineN, kTimelineShards,
                        Direction::Forward);
  expect_timeline(
      tree, plan, timeline_complex_input(),
      {3.3885880053368846, 2.0543986404065158,
       {{0.84126218809980802, 0.30089355382666161, 0.058683631677600476,
         0.85355926680244465, 0.36126218809980809, 0.11936791002811596,
         0.85355926680244465},
        2097152, 2097152, 2097152, 20}});
}

TEST(ShardedTimeline, ComplexForwardOnMeshSlabAndPencil) {
  // At n = 64, shards = 4 a pencil layout needs 2 * local_nz = 32
  // members, so on four cards the pencil preference resolves to the
  // same slab schedule.
  const TimelineGolden slab{
      2.959637143529013, 2.5179365213742764,
      {{0.42063109404990401, 0.15042190602187505, 0.029344629803186365,
        0.053374500468603536, 0.04857599999999998, 0.059685955014057969,
        0.42677963340122199},
       524288, 524288, 524288, 10}};
  for (const Decomposition d : {Decomposition::Slab, Decomposition::Pencil}) {
    SCOPED_TRACE(d == Decomposition::Slab ? "slab" : "pencil");
    sim::DeviceGroup mesh(4, sim::geforce_8800_gts(), mesh_of(4));
    ShardedFft3DPlan plan(mesh, kTimelineN, kTimelineShards,
                          Direction::Forward);
    plan.set_decomposition(d);
    expect_timeline(mesh, plan, timeline_complex_input(), slab);
    EXPECT_EQ(plan.last_layout().decomp, Decomposition::Slab);
    EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
  }
  // shards = 16 on eight cards runs a real pencil layout (y_blocks 2).
  sim::DeviceGroup mesh(8, sim::geforce_8800_gts(), mesh_of(8));
  ShardedFft3DPlan plan(mesh, kTimelineN, 16, Direction::Forward);
  plan.set_decomposition(Decomposition::Pencil);
  expect_timeline(
      mesh, plan, timeline_complex_input(),
      {3.6174914858855365, 3.2243351799628113,
       {{0.210315547024952, 0.15346674784621975, 0.02974397750702899,
         0.043535625117150881, 0.042335999999999992, 0.019766489222117829,
         0.37338981670061089},
        262144, 262144, 262144, 13}});
  EXPECT_EQ(plan.last_layout().decomp, Decomposition::Pencil);
}

TEST(ShardedTimeline, RealForwardAndInverseOnTree) {
  const TimelineGolden fwd{
      5.1769240860615344, 3.1831099589445779,
      {{1.383775815738963, 0.34912487868797443, 0.06009276757263303,
        1.3901164969450099, 0.4237758157389635, 0.17992181443298971,
        1.3901164969450099},
       1081344, 1081344, 1081344, 38}};
  const TimelineGolden inv{
      5.2599175140462773, 3.1007742097971698,
      {{1.383775815738963, 0.24676456140236966, 0.06009276757263303,
        1.3901164969450099, 0.4237758157389635, 0.34525099156514227,
        1.3901164969450099},
       1081344, 1081472, 1081344, 44}};
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    SCOPED_TRACE(dir == Direction::Forward ? "forward" : "inverse");
    sim::DeviceGroup tree(2, sim::geforce_8800_gts());
    ShardedFft3DPlan plan(
        tree, PlanDesc::sharded_real3d(kTimelineN, kTimelineShards, dir));
    expect_timeline(tree, plan, timeline_real_input(),
                    dir == Direction::Forward ? fwd : inv);
  }
}

TEST(ShardedTimeline, RealForwardAndInverseOnMesh) {
  // Phase 2 runs in place on the receive buffer. The earlier schedule
  // first gathered each plane group into a slab with two local copies
  // and ran the kernels there. Its values, where they differ: h2d2 =
  // 0.070568907216494822 (receive legs plus gathers), fft2 =
  // 0.089960907216494856 / 0.17262549578257114 and makespan =
  // 4.511269136602718 / 4.4702072111775104 (forward / inverse).
  const TimelineGolden fwd{
      4.4339015489738518, 3.7163530736972263,
      {{0.69188790786948151, 0.174344249964385, 0.030045883786316514,
        0.063146226804123698, 0.060671999999999983, 0.090054883786316778,
        0.69505824847250464},
       270336, 270336, 270336, 19}};
  const TimelineGolden inv{
      4.330906609490536, 3.5926265597059421,
      {{0.69188790786948151, 0.12338805332836815, 0.030045883786316514,
        0.063146226804123698, 0.060671999999999983, 0.17390217057169954,
        0.69505824847250464},
       270336, 270464, 270336, 22}};
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    SCOPED_TRACE(dir == Direction::Forward ? "forward" : "inverse");
    sim::DeviceGroup mesh(4, sim::geforce_8800_gts(), mesh_of(4));
    ShardedFft3DPlan plan(
        mesh, PlanDesc::sharded_real3d(kTimelineN, kTimelineShards, dir));
    expect_timeline(mesh, plan, timeline_real_input(),
                    dir == Direction::Forward ? fwd : inv);
    EXPECT_EQ(plan.last_layout().exchange, Exchange::Peer);
  }
}

}  // namespace
}  // namespace repro::gpufft
