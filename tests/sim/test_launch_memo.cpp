// The device launch memo (Device::launch): key completeness for every
// kernel that opts in, plan-level repeat executes served entirely from the
// memo with unchanged history and output bits, the bounded memo and its
// counters.
//
// Key completeness: each kernel's variants change exactly one key input of
// a base launch. On a device with a warm memo every variant must miss, and
// its LaunchResult must equal the one a fresh device (same allocation
// sequence, so the bump allocator hands out the same addresses) computes
// from scratch. A key input missing from Kernel::timing_key makes the
// variant hit the base entry and fails here.
#include "sim/device.h"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "gpufft/cache.h"
#include "gpufft/fine_kernel.h"
#include "gpufft/naive.h"
#include "gpufft/outofcore.h"
#include "gpufft/plan.h"
#include "gpufft/rank_kernels.h"
#include "gpufft/real_kernels.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/topology/peer_mesh.h"

namespace repro::gpufft {
namespace {

using sim::LaunchResult;

void expect_same(const LaunchResult& a, const LaunchResult& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.total_ms, b.total_ms);
  EXPECT_EQ(a.mem_ms, b.mem_ms);
  EXPECT_EQ(a.compute_ms, b.compute_ms);
  EXPECT_EQ(a.dram_bytes, b.dram_bytes);
  EXPECT_EQ(a.achieved_gbs, b.achieved_gbs);
  EXPECT_EQ(a.effective_gbs, b.effective_gbs);
  EXPECT_EQ(a.coalesced_fraction, b.coalesced_fraction);
  EXPECT_EQ(a.occupancy.blocks_per_sm, b.occupancy.blocks_per_sm);
  EXPECT_EQ(a.occupancy.active_threads, b.occupancy.active_threads);
  EXPECT_EQ(a.occupancy.active_warps, b.occupancy.active_warps);
  EXPECT_EQ(a.occupancy.occupancy, b.occupancy.occupancy);
  EXPECT_EQ(a.occupancy.limiter, b.occupancy.limiter);
  EXPECT_EQ(a.gflops, b.gflops);
}

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

// ---------------------------------------------------------------------
// Key completeness
// ---------------------------------------------------------------------

constexpr std::size_t kRigElems = 4096;

/// Buffers every variant draws from, allocated in the same order on every
/// device. Twin twiddle tables differ only in their device address.
struct Rig {
  explicit Rig(Device& dev)
      : a(dev.alloc<cxf>(kRigElems)),
        b(dev.alloc<cxf>(kRigElems)),
        tw16(upload_roots<float>(dev, 16, Direction::Forward)),
        tw16b(upload_roots<float>(dev, 16, Direction::Forward)),
        tw32(upload_roots<float>(dev, 32, Direction::Forward)),
        tw32b(upload_roots<float>(dev, 32, Direction::Forward)) {
    const auto in = random_complex<float>(kRigElems, 7);
    std::copy(in.begin(), in.end(), a.data());
    std::copy(in.begin(), in.end(), b.data());
  }
  DeviceBuffer<cxf> a, b;
  DeviceBuffer<cxf> tw16, tw16b, tw32, tw32b;
};

using Variant = std::function<LaunchResult(Device&, Rig&)>;

/// variants[0] is the base launch; every later one changes one input.
void expect_key_complete(const std::vector<Variant>& variants) {
  Device warm(sim::geforce_8800_gts());
  Rig warm_rig(warm);
  std::vector<LaunchResult> warm_results;
  for (std::size_t i = 0; i < variants.size(); ++i) {
    const std::uint64_t misses = warm.launch_memo_misses();
    warm_results.push_back(variants[i](warm, warm_rig));
    EXPECT_EQ(warm.launch_memo_misses(), misses + 1)
        << "variant " << i << " hit an earlier entry";
  }
  for (std::size_t i = 0; i < variants.size(); ++i) {
    SCOPED_TRACE("variant " + std::to_string(i));
    Device cold(sim::geforce_8800_gts());
    Rig cold_rig(cold);
    expect_same(warm_results[i], variants[i](cold, cold_rig));
    EXPECT_EQ(cold.launch_memo_hits(), 0u);
  }
  // Repeating the base is a hit with the base's result.
  const std::uint64_t hits = warm.launch_memo_hits();
  expect_same(variants[0](warm, warm_rig), warm_results[0]);
  EXPECT_EQ(warm.launch_memo_hits(), hits + 1);
}

TEST(LaunchMemo, RankKernelKeysAreComplete) {
  RankKernelParams base;
  base.in_shape = Shape5{{16, 2, 2, 2, 8}};
  base.twiddles = TwiddleSource::Texture;
  base.grid_blocks = 4;
  base.threads_per_block = 64;
  // Each edit changes one key input; the shape edit keeps the item count
  // (and so the LaunchConfig) but moves every output address.
  const std::vector<std::function<void(RankKernelParams&)>> edits = {
      [](RankKernelParams&) {},
      [](RankKernelParams& p) { p.in_shape = Shape5{{16, 4, 1, 2, 8}}; },
      [](RankKernelParams& p) { p.dir = Direction::Inverse; },
      [](RankKernelParams& p) { p.twiddles = TwiddleSource::Registers; },
      [](RankKernelParams& p) { p.grid_blocks = 2; },
      [](RankKernelParams& p) { p.threads_per_block = 32; },
      [](RankKernelParams& p) { p.elem_offset = 16; },
  };
  std::vector<Variant> rank1;
  std::vector<Variant> rank2;
  for (const auto& edit : edits) {
    RankKernelParams p = base;
    edit(p);
    rank1.push_back([p](Device& dev, Rig& r) {
      Rank1Kernel k(r.a, r.b, p, 16, &r.tw16);
      return dev.launch(k);
    });
    rank2.push_back([p](Device& dev, Rig& r) {
      Rank2Kernel k(r.a, r.b, p);
      return dev.launch(k);
    });
  }
  rank1.push_back([base](Device& dev, Rig& r) {  // input buffer
    Rank1Kernel k(r.b, r.b, base, 16, &r.tw16);
    return dev.launch(k);
  });
  rank1.push_back([base](Device& dev, Rig& r) {  // output buffer
    Rank1Kernel k(r.a, r.a, base, 16, &r.tw16);
    return dev.launch(k);
  });
  rank1.push_back([base](Device& dev, Rig& r) {  // texture table address
    Rank1Kernel k(r.a, r.b, base, 16, &r.tw16b);
    return dev.launch(k);
  });
  rank1.push_back([base](Device& dev, Rig& r) {  // axis length n
    Rank1Kernel k(r.a, r.b, base, 32, &r.tw32);
    return dev.launch(k);
  });
  rank2.push_back([base](Device& dev, Rig& r) {
    Rank2Kernel k(r.b, r.b, base);
    return dev.launch(k);
  });
  rank2.push_back([base](Device& dev, Rig& r) {
    Rank2Kernel k(r.a, r.a, base);
    return dev.launch(k);
  });
  {
    SCOPED_TRACE("rank1");
    expect_key_complete(rank1);
  }
  {
    SCOPED_TRACE("rank2");
    expect_key_complete(rank2);
  }
}

TEST(LaunchMemo, MixedAxisKernelKeysAreComplete) {
  struct Args {
    Shape3 shape{6, 6, 6};
    std::size_t pitch{6};
    MixedAxis axis{MixedAxis::X};
    Direction dir{Direction::Forward};
    unsigned grid{2};
    unsigned tpb{32};
    bool other_buffer{false};
  };
  const std::vector<std::function<void(Args&)>> edits = {
      [](Args&) {},
      [](Args& a) { a.other_buffer = true; },
      [](Args& a) { a.pitch = 8; },
      [](Args& a) { a.axis = MixedAxis::Y; },
      [](Args& a) { a.axis = MixedAxis::Z; },
      [](Args& a) { a.dir = Direction::Inverse; },
      [](Args& a) { a.grid = 1; },
      [](Args& a) { a.tpb = 64; },
      [](Args& a) { a.shape = Shape3{6, 6, 5}; },
      [](Args& a) {  // a Bluestein axis
        a.shape = Shape3{11, 6, 6};
        a.pitch = 11;
      },
  };
  std::vector<Variant> v;
  for (const auto& edit : edits) {
    Args a;
    edit(a);
    v.push_back([a](Device& dev, Rig& r) {
      const std::size_t n = a.axis == MixedAxis::X   ? a.shape.nx
                            : a.axis == MixedAxis::Y ? a.shape.ny
                                                     : a.shape.nz;
      const auto tables = MixedAxisTablesT<float>::make(n, Direction::Forward);
      MixedAxisKernelT<float> k(a.other_buffer ? r.b : r.a, a.shape, a.pitch,
                                a.axis, tables, a.dir, a.grid, a.tpb);
      return dev.launch(k);
    });
  }
  expect_key_complete(v);
}

TEST(LaunchMemo, FineKernelKeysAreComplete) {
  FineKernelParams base;
  base.n = 16;
  base.count = 64;
  base.grid_blocks = 4;
  base.threads_per_block = 64;
  const std::vector<std::function<void(FineKernelParams&)>> edits = {
      [](FineKernelParams&) {},
      [](FineKernelParams& p) { p.dir = Direction::Inverse; },
      [](FineKernelParams& p) { p.twiddles = TwiddleSource::Constant; },
      [](FineKernelParams& p) { p.twiddles = TwiddleSource::Registers; },
      [](FineKernelParams& p) { p.shmem_pad_words = 0; },
      [](FineKernelParams& p) { p.grid_blocks = 2; },
      [](FineKernelParams& p) { p.threads_per_block = 32; },
      [](FineKernelParams& p) { p.count = 48; },
  };
  std::vector<Variant> v;
  for (const auto& edit : edits) {
    FineKernelParams p = base;
    edit(p);
    v.push_back([p](Device& dev, Rig& r) {
      FineFftKernel k(r.a, r.a, p, &r.tw16);
      return dev.launch(k);
    });
  }
  v.push_back([base](Device& dev, Rig& r) {  // input buffer
    FineFftKernel k(r.b, r.a, base, &r.tw16);
    return dev.launch(k);
  });
  v.push_back([base](Device& dev, Rig& r) {  // output buffer
    FineFftKernel k(r.a, r.b, base, &r.tw16);
    return dev.launch(k);
  });
  v.push_back([base](Device& dev, Rig& r) {  // texture table address
    FineFftKernel k(r.a, r.a, base, &r.tw16b);
    return dev.launch(k);
  });
  expect_key_complete(v);
}

TEST(LaunchMemo, RealFineKernelKeysAreComplete) {
  RealFineParams base;
  base.nx = 32;
  base.count = 16;
  base.grid_blocks = 2;
  base.threads_per_block = 64;
  struct Args {
    RealFineParams p;
    bool other_data{false};
    bool other_half_table{false};
    bool other_full_table{false};
  };
  const std::vector<std::function<void(Args&)>> edits = {
      [](Args&) {},
      [](Args& a) { a.p.twiddles = TwiddleSource::Constant; },
      [](Args& a) { a.p.shmem_pad_words = 0; },
      [](Args& a) { a.p.grid_blocks = 1; },
      [](Args& a) { a.p.threads_per_block = 32; },
      [](Args& a) { a.p.count = 8; },
      [](Args& a) { a.p.elem_offset = 32; },
      [](Args& a) { a.other_data = true; },
      [](Args& a) { a.other_half_table = true; },
      [](Args& a) { a.other_full_table = true; },
  };
  std::vector<Variant> r2c;
  std::vector<Variant> c2r;
  for (const auto& edit : edits) {
    Args a{base};
    edit(a);
    const auto launch = [a](auto tag) -> Variant {
      return [a](Device& dev, Rig& r) {
        typename decltype(tag)::type k(a.other_data ? r.b : r.a, a.p,
                                       a.other_half_table ? &r.tw16b : &r.tw16,
                                       a.other_full_table ? &r.tw32b : &r.tw32);
        return dev.launch(k);
      };
    };
    r2c.push_back(launch(std::type_identity<RealFineR2CKernel>{}));
    c2r.push_back(launch(std::type_identity<RealFineC2RKernel>{}));
  }
  {
    SCOPED_TRACE("r2c");
    expect_key_complete(r2c);
  }
  {
    SCOPED_TRACE("c2r");
    expect_key_complete(c2r);
  }
}

TEST(LaunchMemo, SlabKernelKeysAreComplete) {
  struct Args {
    Shape3 slab{16, 4, 4};
    Direction dir{Direction::Forward};
    unsigned grid{2};
    std::size_t offset{0};
    unsigned tpb{64};
    std::size_t n{16};
    std::size_t residue{1};
    bool other_buffer{false};
  };
  const auto pencil_of = [](const Args& a) -> Variant {
    return [a](Device& dev, Rig& r) {
      ZPencilFftKernel k(a.other_buffer ? r.b : r.a, a.slab, a.dir, a.grid,
                         a.offset, a.tpb);
      return dev.launch(k);
    };
  };
  const auto twiddle_of = [](const Args& a) -> Variant {
    return [a](Device& dev, Rig& r) {
      SlabTwiddleKernel k(a.other_buffer ? r.b : r.a, a.slab, a.n, a.residue,
                          a.dir, a.grid, a.offset, a.tpb);
      return dev.launch(k);
    };
  };
  const std::vector<std::function<void(Args&)>> shared_edits = {
      [](Args&) {},
      [](Args& a) { a.slab = Shape3{8, 8, 4}; },
      [](Args& a) { a.grid = 1; },
      [](Args& a) { a.offset = 16; },
      [](Args& a) { a.tpb = 32; },
      [](Args& a) { a.other_buffer = true; },
  };
  std::vector<Variant> pencil;
  std::vector<Variant> twiddle;
  for (const auto& edit : shared_edits) {
    Args a;
    edit(a);
    pencil.push_back(pencil_of(a));
    twiddle.push_back(twiddle_of(a));
  }
  Args inverse;
  inverse.dir = Direction::Inverse;
  pencil.push_back(pencil_of(inverse));
  // The twiddle kernel's direction only changes values, never an address,
  // so it is not a key input there; the table length and residue are.
  Args longer;
  longer.n = 32;
  twiddle.push_back(twiddle_of(longer));
  Args residue;
  residue.residue = 2;
  twiddle.push_back(twiddle_of(residue));
  {
    SCOPED_TRACE("zpencil");
    expect_key_complete(pencil);
  }
  {
    SCOPED_TRACE("slab twiddle");
    expect_key_complete(twiddle);
  }
}

TEST(LaunchMemo, ScaleKernelKeyIsCompleteAndIgnoresTheFactor) {
  const auto scale = [](std::size_t count, float factor, unsigned grid,
                        bool other) -> Variant {
    return [=](Device& dev, Rig& r) {
      ScaleKernel k(other ? r.b : r.a, count, factor, grid);
      return dev.launch(k);
    };
  };
  expect_key_complete({scale(1024, 0.5f, 4, false), scale(512, 0.5f, 4, false),
                       scale(1024, 0.5f, 2, false),
                       scale(1024, 0.5f, 4, true)});

  // The factor is a data value: a launch that only changes it hits.
  Device dev(sim::geforce_8800_gts());
  Rig rig(dev);
  const LaunchResult first = scale(1024, 0.5f, 4, false)(dev, rig);
  const LaunchResult second = scale(1024, 2.0f, 4, false)(dev, rig);
  EXPECT_EQ(dev.launch_memo_hits(), 1u);
  expect_same(first, second);
}

TEST(LaunchMemo, SimOptionsAreKeyInputsAndResetClockKeepsTheMemo) {
  Device dev(sim::geforce_8800_gts());
  Rig rig(dev);
  const auto launch = [&] {
    ScaleKernel k(rig.a, 1024, 0.5f, 4);
    return dev.launch(k);
  };
  launch();
  EXPECT_EQ(dev.launch_memo_misses(), 1u);
  dev.options().sample_accesses_per_thread = 2;
  const LaunchResult sampled = launch();
  EXPECT_EQ(dev.launch_memo_misses(), 2u);
  dev.options().sample_accesses_per_thread =
      sim::SimOptions{}.sample_accesses_per_thread;
  dev.reset_clock();
  launch();
  EXPECT_EQ(dev.launch_memo_hits(), 1u);
  EXPECT_EQ(dev.launch_memo_misses(), 2u);

  // The sparse-sampling result is what a fresh device computes.
  Device cold(sim::geforce_8800_gts());
  Rig cold_rig(cold);
  cold.options().sample_accesses_per_thread = 2;
  ScaleKernel k(cold_rig.a, 1024, 0.5f, 4);
  expect_same(cold.launch(k), sampled);
}

// ---------------------------------------------------------------------
// Bounded memo and counters
// ---------------------------------------------------------------------

TEST(LaunchMemo, MemoStaysBoundedOverFreshBuffers) {
  Device dev(sim::geforce_8800_gts());
  const std::size_t launches = Device::kLaunchMemoCapacity + 100;
  for (std::size_t i = 0; i < launches; ++i) {
    auto buf = dev.alloc<cxf>(64);
    ScaleKernel k(buf, 64, 0.5f, 1);
    dev.launch(k);
    ASSERT_LE(dev.launch_memo_entries(), Device::kLaunchMemoCapacity);
  }
  // Every buffer had a fresh address, so nothing could hit.
  EXPECT_EQ(dev.launch_memo_hits(), 0u);
  EXPECT_EQ(dev.launch_memo_misses(), launches);
  EXPECT_EQ(dev.launch_memo_entries(), 100u);

  // A repeat of the last launch hits; the counters still add up.
  auto buf = dev.alloc<cxf>(64);
  for (int rep = 0; rep < 2; ++rep) {
    ScaleKernel k(buf, 64, 0.5f, 1);
    dev.launch(k);
  }
  EXPECT_EQ(dev.launch_memo_hits(), 1u);
  EXPECT_EQ(dev.launch_memo_hits() + dev.launch_memo_misses(), launches + 2);
}

TEST(LaunchMemo, EmptyKeyIsNeverMemoized) {
  Device dev(sim::geforce_8800_gts());
  Rig rig(dev);
  for (int rep = 0; rep < 2; ++rep) {
    DeviceCopyKernel k(rig.a, rig.b, 1024, 4);
    dev.launch(k);
  }
  EXPECT_EQ(dev.launch_memo_hits(), 0u);
  EXPECT_EQ(dev.launch_memo_misses(), 2u);
  EXPECT_EQ(dev.launch_memo_entries(), 0u);
}

// ---------------------------------------------------------------------
// Plan level: a repeated execute is served entirely from the memo
// ---------------------------------------------------------------------

std::vector<Device*> devices_of(sim::DeviceGroup& group) {
  std::vector<Device*> devs;
  for (std::size_t d = 0; d < group.size(); ++d) {
    devs.push_back(&group.device(d));
  }
  return devs;
}

struct Mark {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::vector<std::size_t> history;  ///< per device
};

Mark mark(const std::vector<Device*>& devs) {
  Mark m;
  for (const Device* d : devs) {
    m.hits += d->launch_memo_hits();
    m.misses += d->launch_memo_misses();
    m.history.push_back(d->history().size());
  }
  return m;
}

/// Run `execute` twice from identical inputs; the second run must be all
/// memo hits with the first run's history slice and output bits.
void expect_repeat_served_from_memo(
    const std::vector<Device*>& devs,
    const std::function<std::vector<cxf>()>& execute) {
  const Mark m0 = mark(devs);
  const std::vector<cxf> first = execute();
  const Mark m1 = mark(devs);
  const std::vector<cxf> second = execute();
  const Mark m2 = mark(devs);

  std::uint64_t launches = 0;
  for (std::size_t d = 0; d < devs.size(); ++d) {
    SCOPED_TRACE("device " + std::to_string(d));
    const std::size_t n1 = m1.history[d] - m0.history[d];
    ASSERT_EQ(m2.history[d] - m1.history[d], n1);
    const auto& h = devs[d]->history();
    for (std::size_t i = 0; i < n1; ++i) {
      expect_same(h[m1.history[d] + i], h[m0.history[d] + i]);
    }
    launches += n1;
  }
  EXPECT_GT(launches, 0u);
  EXPECT_EQ(m2.misses, m1.misses);
  EXPECT_EQ(m2.hits - m1.hits, launches);
  EXPECT_TRUE(bit_identical(first, second));
}

/// Device-resident plans: upload, execute in place, read back.
void expect_plan_repeat_served(const PlanDesc& desc, std::uint64_t seed) {
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(desc);
  auto buf = dev.alloc<cxf>(plan->buffer_elements());
  const auto input = random_complex<float>(plan->buffer_elements(), seed);
  expect_repeat_served_from_memo({&dev}, [&] {
    dev.h2d(buf, std::span<const cxf>(input));
    plan->execute(buf);
    return std::vector<cxf>(buf.span().begin(), buf.span().end());
  });
}

TEST(LaunchMemo, RepeatedSingleCardExecutesAreAllHits) {
  {
    SCOPED_TRACE("five-step 64^3");
    expect_plan_repeat_served(
        PlanDesc::bandwidth3d(cube(64), Direction::Forward), 11);
  }
  {
    SCOPED_TRACE("mixed 100^3");
    expect_plan_repeat_served(
        PlanDesc::mixed3d(cube(100), Direction::Forward), 12);
  }
  {
    SCOPED_TRACE("bluestein 97^3");
    expect_plan_repeat_served(
        PlanDesc::mixed3d(cube(97), Direction::Forward), 13);
  }
  {
    SCOPED_TRACE("real 64^3");
    expect_plan_repeat_served(
        PlanDesc::real3d(cube(64), Direction::Inverse), 14);
  }
}

TEST(LaunchMemo, RepeatedOutOfCoreExecuteIsAllHits) {
  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::out_of_core(64, 4, Direction::Forward));
  const auto input = random_complex<float>(64 * 64 * 64, 15);
  expect_repeat_served_from_memo({&dev}, [&] {
    std::vector<cxf> data = input;
    plan->execute_host(std::span<cxf>(data));
    return data;
  });
}

TEST(LaunchMemo, RepeatedShardedExecutesOnAMeshAreAllHits) {
  const auto mesh = [](std::size_t k) {
    return std::make_shared<sim::PeerMeshTopology>(k);
  };
  const auto run_twice = [](sim::DeviceGroup& group, ShardedFft3DPlan& plan) {
    const auto input = random_complex<float>(plan.buffer_elements(), 16);
    expect_repeat_served_from_memo(devices_of(group), [&] {
      std::vector<cxf> data = input;
      plan.execute(std::span<cxf>(data));
      return data;
    });
  };
  {
    SCOPED_TRACE("c2c slab");
    sim::DeviceGroup group(4, sim::geforce_8800_gts(), mesh(4));
    ShardedFft3DPlan plan(group, 64, 4, Direction::Forward);
    plan.set_decomposition(Decomposition::Slab);
    run_twice(group, plan);
  }
  {
    SCOPED_TRACE("c2c pencil");
    sim::DeviceGroup group(8, sim::geforce_8800_gts(), mesh(8));
    ShardedFft3DPlan plan(group, 64, 16, Direction::Forward);
    plan.set_decomposition(Decomposition::Pencil);
    run_twice(group, plan);
    EXPECT_EQ(plan.last_layout().decomp, Decomposition::Pencil);
  }
  {
    SCOPED_TRACE("real");
    sim::DeviceGroup group(4, sim::geforce_8800_gts(), mesh(4));
    ShardedFft3DPlan plan(
        group, PlanDesc::sharded_real3d(64, 4, Direction::Forward));
    run_twice(group, plan);
  }
  {
    SCOPED_TRACE("pipelined batch");
    sim::DeviceGroup group(4, sim::geforce_8800_gts(), mesh(4));
    ShardedFft3DPlan plan(group, 32, 4, Direction::Forward);
    const auto v0 = random_complex<float>(32 * 32 * 32, 17);
    const auto v1 = random_complex<float>(32 * 32 * 32, 18);
    expect_repeat_served_from_memo(devices_of(group), [&] {
      std::vector<cxf> a = v0;
      std::vector<cxf> b = v1;
      const std::vector<std::span<cxf>> spans = {a, b};
      plan.execute_batch(spans);
      a.insert(a.end(), b.begin(), b.end());
      return a;
    });
  }
}

// ---------------------------------------------------------------------
// Sharing: equal-spec group members use one memo, exactly
// ---------------------------------------------------------------------

/// The launches of one five-step 32^3 execute on `dev`, from its own
/// registry, after the same allocation sequence on every device.
std::vector<LaunchResult> five_step_launches(Device& dev) {
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::bandwidth3d(cube(32), Direction::Forward));
  auto buf = dev.alloc<cxf>(plan->buffer_elements());
  const auto input = random_complex<float>(plan->buffer_elements(), 19);
  dev.h2d(buf, std::span<const cxf>(input));
  const std::size_t before = dev.history().size();
  plan->execute(buf);
  return {dev.history().begin() + static_cast<std::ptrdiff_t>(before),
          dev.history().end()};
}

TEST(LaunchMemoSharing, EqualSpecMembersGetALoneDevicesResults) {
  sim::DeviceGroup group(4, sim::geforce_8800_gts());
  Device lone(group.device(0).spec());
  const std::vector<LaunchResult> ref = five_step_launches(lone);
  ASSERT_FALSE(ref.empty());
  for (std::size_t d = 0; d < group.size(); ++d) {
    SCOPED_TRACE("member " + std::to_string(d));
    Device& dev = group.device(d);
    const std::vector<LaunchResult> got = five_step_launches(dev);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_same(got[i], ref[i]);
    // Member 0 filled the shared memo; the others only hit it.
    EXPECT_EQ(dev.launch_memo_hits(), d == 0 ? 0u : ref.size());
    EXPECT_EQ(dev.launch_memo_entries(), group.device(0).launch_memo_entries());
  }
}

TEST(LaunchMemoSharing, MixedSpecMembersShareNothing) {
  sim::DeviceGroup group({sim::geforce_8800_gt(), sim::geforce_8800_gtx()});
  for (std::size_t d = 0; d < group.size(); ++d) {
    SCOPED_TRACE("member " + std::to_string(d));
    Device& dev = group.device(d);
    Device lone(dev.spec());
    const std::vector<LaunchResult> ref = five_step_launches(lone);
    const std::vector<LaunchResult> got = five_step_launches(dev);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) expect_same(got[i], ref[i]);
    EXPECT_EQ(dev.launch_memo_hits(), 0u);
    EXPECT_EQ(dev.launch_memo_entries(), lone.launch_memo_entries());
  }
}

}  // namespace
}  // namespace repro::gpufft
