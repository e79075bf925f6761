// Real-transform (r2c/c2r) 3-D plans: half-spectrum layout against the
// host PlanR2C3D/PlanC2R3D references, true-inverse round trips, the
// ~half traffic claim, registry routing, async equivalence, and the
// sharded real plan's bit-identical decimation + halved exchange.
#include "gpufft/real3d.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/real.h"
#include "gpufft/plan.h"
#include "gpufft/real_kernels.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"
#include "sim/device_group.h"
#include "sim/topology/peer_mesh.h"

namespace repro::gpufft {
namespace {

std::vector<float> random_reals(std::size_t n, std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.uniform(-1.0, 1.0));
  return v;
}

std::vector<cxf> to_cx(const std::vector<float>& v) {
  std::vector<cxf> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = {v[i], 0.0f};
  return out;
}

bool bit_identical(const std::vector<cxf>& a, const std::vector<cxf>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].re != b[i].re || a[i].im != b[i].im) return false;
  }
  return true;
}

/// Run a registry-obtained real plan over a padded host buffer.
std::vector<cxf> device_real_fft(const std::vector<cxf>& padded,
                                 Shape3 shape, Direction dir, Device& dev) {
  auto plan = PlanRegistry::of(dev).get_or_create(PlanDesc::real3d(shape, dir));
  auto buf = dev.alloc<cxf>(plan->buffer_elements());
  dev.h2d(buf, std::span<const cxf>(padded));
  plan->execute(buf);
  std::vector<cxf> out(plan->buffer_elements());
  dev.d2h(std::span<cxf>(out), buf);
  return out;
}

class RealCubes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealCubes, ForwardMatchesHostHalfSpectrum) {
  const Shape3 shape = cube(GetParam());
  const auto reals = random_reals(shape.volume(), GetParam());
  Device dev(sim::geforce_8800_gts());
  const auto padded = pack_real_volume<float>(reals, shape);
  const auto out = device_real_fft(padded, shape, Direction::Forward, dev);

  fft::PlanR2C3D<float> host(shape);
  std::vector<cxf> ref(host.spectrum_elems());
  host.execute(std::span<const float>(reals), std::span<cxf>(ref));

  // Same buffer, same element positions: the host reference is the
  // bit-for-bit *layout* oracle; values agree to FFT tolerance.
  ASSERT_EQ(out.size(), ref.size());
  EXPECT_LT(rel_l2_error<float>(out, ref),
            fft_error_bound<float>(shape.volume()));
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealCubes, ::testing::Values(32, 64));

TEST(Real3D, ForwardNonCubicMatchesHost) {
  const Shape3 shape{64, 32, 16};
  const auto reals = random_reals(shape.volume(), 7);
  Device dev(sim::geforce_8800_gt());
  const auto padded = pack_real_volume<float>(reals, shape);
  const auto out = device_real_fft(padded, shape, Direction::Forward, dev);

  fft::PlanR2C3D<float> host(shape);
  std::vector<cxf> ref(host.spectrum_elems());
  host.execute(std::span<const float>(reals), std::span<cxf>(ref));
  EXPECT_LT(rel_l2_error<float>(out, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(Real3D, HermitianEdgeBinsAreReal) {
  // Conjugate symmetry pins kx = 0 and kx = nx/2 at (ky, kz) self-paired
  // points to real values; the fused unpack must respect that.
  const Shape3 shape = cube(32);
  const auto reals = random_reals(shape.volume(), 11);
  Device dev(sim::geforce_8800_gts());
  const auto padded = pack_real_volume<float>(reals, shape);
  const auto out = device_real_fft(padded, shape, Direction::Forward, dev);
  // (ky, kz) = (0, 0) is self-conjugate: DC and Nyquist bins are real.
  EXPECT_NEAR(out[half_spectrum_index(shape, 0, 0, 0)].im, 0.0f, 1e-3f);
  EXPECT_NEAR(out[half_spectrum_index(shape, shape.nx / 2, 0, 0)].im, 0.0f,
              1e-3f);
  // A generic plane pair must be conjugate: X[kx,ky,kz] == conj(X[kx',...])
  const std::size_t ky = 3;
  const std::size_t kz = 5;
  const cxf a = out[half_spectrum_index(shape, 0, ky, kz)];
  const cxf b =
      out[half_spectrum_index(shape, 0, shape.ny - ky, shape.nz - kz)];
  EXPECT_NEAR(a.re, b.re, 1e-3f);
  EXPECT_NEAR(a.im, -b.im, 1e-3f);
}

TEST(Real3D, DeviceRoundTripIsIdentity) {
  // r2c then c2r through registry plans reconstructs the input: the c2r
  // pass folds the full normalization (true inverse, no ScaleKernel).
  const Shape3 shape = cube(64);
  const auto reals = random_reals(shape.volume(), 13);
  Device dev(sim::geforce_8800_gtx());
  auto padded = pack_real_volume<float>(reals, shape);
  auto mid = device_real_fft(padded, shape, Direction::Forward, dev);
  auto back = device_real_fft(mid, shape, Direction::Inverse, dev);
  const auto recovered = unpack_real_volume<float>(back, shape);
  EXPECT_LT(rel_l2_error<float>(to_cx(recovered), to_cx(reals)),
            fft_error_bound<float>(shape.volume()));
}

TEST(Real3D, InverseMatchesHostC2R3D) {
  const Shape3 shape = cube(32);
  const auto reals = random_reals(shape.volume(), 17);
  fft::PlanR2C3D<float> fwd(shape);
  std::vector<cxf> spectrum(fwd.spectrum_elems());
  fwd.execute(std::span<const float>(reals), std::span<cxf>(spectrum));

  Device dev(sim::geforce_8800_gts());
  const auto back = device_real_fft(spectrum, shape, Direction::Inverse, dev);
  const auto got = unpack_real_volume<float>(back, shape);

  fft::PlanC2R3D<float> inv(shape);
  std::vector<float> ref(shape.volume());
  inv.execute(std::span<const cxf>(spectrum), std::span<float>(ref));
  EXPECT_LT(rel_l2_error<float>(to_cx(got), to_cx(ref)),
            fft_error_bound<float>(shape.volume()));
}

TEST(Real3D, ExecuteAsyncMatchesExecuteBitForBit) {
  const Shape3 shape = cube(32);
  const auto reals = random_reals(shape.volume(), 19);
  const auto padded = pack_real_volume<float>(reals, shape);

  Device dev(sim::geforce_8800_gts());
  auto plan = PlanRegistry::of(dev).get_or_create(
      PlanDesc::real3d(shape, Direction::Forward));
  auto a = dev.alloc<cxf>(plan->buffer_elements());
  auto b = dev.alloc<cxf>(plan->buffer_elements());
  dev.h2d(a, std::span<const cxf>(padded));
  dev.h2d(b, std::span<const cxf>(padded));
  plan->execute(a);
  {
    sim::Stream stream(dev);
    plan->execute_async(b, stream);
  }
  std::vector<cxf> sync(plan->buffer_elements());
  std::vector<cxf> async(plan->buffer_elements());
  dev.d2h(std::span<cxf>(sync), a);
  dev.d2h(std::span<cxf>(async), b);
  EXPECT_TRUE(bit_identical(sync, async));
}

TEST(Real3D, DramTrafficIsAboutHalfOfComplex) {
  // Every pass touches (nx/2+1)/nx of the complex plan's elements — the
  // bandwidth claim the real plan exists for. The split layout keeps all
  // passes coalesced once a half-warp fits inside a half-length row
  // (nx >= 128), so at 128^3 the measured DRAM ratio sits near
  // 65/128 ~ 0.508; accept <= 0.56 to leave room for the (amplified but
  // tiny) Nyquist-tail rank stores.
  const Shape3 shape = cube(128);
  Device dev(sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(dev);

  auto cplan = reg.get_or_create(
      PlanDesc::bandwidth3d(shape, Direction::Forward));
  auto cbuf = dev.alloc<cxf>(cplan->buffer_elements());
  dev.reset_clock();
  cplan->execute(cbuf);
  std::uint64_t complex_bytes = 0;
  for (const auto& r : dev.history()) complex_bytes += r.dram_bytes;

  auto rplan =
      reg.get_or_create(PlanDesc::real3d(shape, Direction::Forward));
  auto rbuf = dev.alloc<cxf>(rplan->buffer_elements());
  dev.reset_clock();
  rplan->execute(rbuf);
  std::uint64_t real_bytes = 0;
  for (const auto& r : dev.history()) real_bytes += r.dram_bytes;

  ASSERT_GT(complex_bytes, 0u);
  const double ratio = static_cast<double>(real_bytes) /
                       static_cast<double>(complex_bytes);
  EXPECT_LE(ratio, 0.56);
  EXPECT_GE(ratio, 0.40);
}

TEST(Real3D, RegistryCachesRealPlans) {
  Device dev(sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(dev);
  const auto desc = PlanDesc::real3d(cube(64), Direction::Forward);
  EXPECT_EQ(desc.kind, PlanKind::Real3D);
  EXPECT_EQ(desc.layout, Layout::RealHalfSpectrum);

  const auto misses0 = reg.misses();
  auto plan = reg.get_or_create(desc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(reg.misses(), misses0 + 1);
  const auto hits0 = reg.hits();
  EXPECT_EQ(reg.get_or_create(desc), plan);  // shared instance
  EXPECT_EQ(reg.hits(), hits0 + 1);
  EXPECT_EQ(plan->buffer_elements(), (64 / 2 + 1) * 64 * 64u);
  EXPECT_LT(plan->buffer_elements(), cube(64).volume());

  // Direction is part of the key: the inverse is a distinct plan.
  auto inverse =
      reg.get_or_create(PlanDesc::real3d(cube(64), Direction::Inverse));
  EXPECT_NE(inverse, plan);
}

TEST(Real3D, RejectsUnsupportedXExtents) {
  Device dev(sim::geforce_8800_gt());
  // Non-power-of-two, too small, too large: the half-length fine stages
  // need nx/2 in the staged-kernel range.
  EXPECT_THROW(RealFft3DPlan(dev, Shape3{48, 64, 64}, Direction::Forward),
               Error);
  EXPECT_THROW(RealFft3DPlan(dev, Shape3{16, 64, 64}, Direction::Forward),
               Error);
  EXPECT_THROW(RealFft3DPlan(dev, Shape3{1024, 64, 64}, Direction::Forward),
               Error);
  try {
    RealFft3DPlan plan(dev, Shape3{48, 64, 64}, Direction::Forward);
    FAIL() << "expected a geometry error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("power of two"), std::string::npos);
  }
}

/// FNV-1a over the raw bytes of a buffer (bit-exact output fingerprint).
std::uint64_t fnv_bits(std::span<const cxf> v) {
  std::uint64_t h = 1469598103934665603ull;
  for (const std::byte b : std::as_bytes(v)) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h;
}

constexpr const char* kTwName[] = {"Registers", "Constant", "Texture",
                                   "Recompute"};

struct RealFinePin {
  Direction dir;
  TwiddleSource tw;
  unsigned pad;
  double total_ms;
  double mem_ms;
  double compute_ms;
  std::uint64_t dram_bytes;
  std::uint64_t bits;
};

// The fused r2c/c2r X kernels at 64^3: exact results recorded while the
// stage engine still derived every index per access.
constexpr RealFinePin kRealFinePins[] = {
    {Direction::Forward, TwiddleSource::Registers, 0,
     0.1228430256849192, 0.1128430256849192, 0.069227983539094637,
     8519680u, 0xcbac3114a0b1794cull},
    {Direction::Forward, TwiddleSource::Registers, 16,
     0.1228430256849192, 0.1128430256849192, 0.067963786008230456,
     8519680u, 0x759f31a88a42ac46ull},
    {Direction::Forward, TwiddleSource::Constant, 0,
     0.1228430256849192, 0.1128430256849192, 0.082712757201646087,
     8519680u, 0xcbac3114a0b1794cull},
    {Direction::Forward, TwiddleSource::Constant, 16,
     0.1228430256849192, 0.1128430256849192, 0.081448559670781892,
     8519680u, 0x759f31a88a42ac46ull},
    {Direction::Forward, TwiddleSource::Texture, 0,
     0.12544142810396416, 0.11544142810396417, 0.069227983539094637,
     8541184u, 0xcbac3114a0b1794cull},
    {Direction::Forward, TwiddleSource::Texture, 16,
     0.12544142810396416, 0.11544142810396417, 0.067963786008230456,
     8541184u, 0x759f31a88a42ac46ull},
    {Direction::Forward, TwiddleSource::Recompute, 0,
     0.13990946502057613, 0.1128430256849192, 0.12990946502057613,
     8519680u, 0xcbac3114a0b1794cull},
    {Direction::Forward, TwiddleSource::Recompute, 16,
     0.13864526748971193, 0.1128430256849192, 0.12864526748971192,
     8519680u, 0x759f31a88a42ac46ull},
    {Direction::Inverse, TwiddleSource::Registers, 0,
     0.12473362280721879, 0.11473362280721879, 0.071427160493827163,
     8650752u, 0x5fa5e1fe6095bb91ull},
    {Direction::Inverse, TwiddleSource::Registers, 16,
     0.12473362280721879, 0.11473362280721879, 0.069741563786008223,
     8650752u, 0x419af69395fa6056ull},
    {Direction::Inverse, TwiddleSource::Constant, 0,
     0.12473362280721879, 0.11473362280721879, 0.084911934156378599,
     8650752u, 0x5fa5e1fe6095bb91ull},
    {Direction::Inverse, TwiddleSource::Constant, 16,
     0.12473362280721879, 0.11473362280721879, 0.083226337448559673,
     8650752u, 0x419af69395fa6056ull},
    {Direction::Inverse, TwiddleSource::Texture, 0,
     0.12747509499541729, 0.11747509499541729, 0.071427160493827163,
     8672256u, 0x5fa5e1fe6095bb91ull},
    {Direction::Inverse, TwiddleSource::Texture, 16,
     0.12747509499541729, 0.11747509499541729, 0.069741563786008223,
     8672256u, 0x419af69395fa6056ull},
    {Direction::Inverse, TwiddleSource::Recompute, 0,
     0.14210864197530862, 0.11473362280721879, 0.13210864197530861,
     8650752u, 0x5fa5e1fe6095bb91ull},
    {Direction::Inverse, TwiddleSource::Recompute, 16,
     0.14042304526748969, 0.11473362280721879, 0.13042304526748971,
     8650752u, 0x419af69395fa6056ull},
};

TEST(RealFine, LaunchResultsPinned) {
  const Shape3 shape = cube(64);
  const std::size_t count = shape.ny * shape.nz;
  std::size_t checked = 0;
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    for (const TwiddleSource tw :
         {TwiddleSource::Registers, TwiddleSource::Constant,
          TwiddleSource::Texture, TwiddleSource::Recompute}) {
      for (const unsigned pad : {0u, 16u}) {
        Device dev(sim::geforce_8800_gtx());
        RealFineParams p;
        p.nx = shape.nx;
        p.count = count;
        p.twiddles = tw;
        p.grid_blocks = default_grid_blocks(dev.spec());
        p.shmem_pad_words = pad;
        p.scale = dir == Direction::Inverse
                      ? 1.0 / static_cast<double>(shape.volume() / 2)
                      : 1.0;
        const std::size_t elems = (shape.nx / 2 + 1) * count;
        auto data = dev.alloc<cxf>(elems);
        auto tw_half = dev.alloc<cxf>(shape.nx / 2);
        auto tw_full = dev.alloc<cxf>(shape.nx);
        const auto roots_half = make_roots<float>(shape.nx / 2, dir);
        const auto roots_full = make_roots<float>(shape.nx, dir);
        dev.h2d(tw_half, std::span<const cxf>(roots_half));
        dev.h2d(tw_full, std::span<const cxf>(roots_full));
        const auto input = random_complex<float>(elems, 64 + pad);
        dev.h2d(data, std::span<const cxf>(input));
        sim::LaunchResult r;
        if (dir == Direction::Forward) {
          RealFineR2CKernel k(data, p, &tw_half, &tw_full);
          r = dev.launch(k);
        } else {
          RealFineC2RKernel k(data, p, &tw_half, &tw_full);
          r = dev.launch(k);
        }
        std::vector<cxf> out(elems);
        dev.d2h(std::span<cxf>(out), data);
        const std::uint64_t bits = fnv_bits(out);

        const RealFinePin* pin = nullptr;
        for (const RealFinePin& f : kRealFinePins) {
          if (f.dir == dir && f.tw == tw && f.pad == pad) pin = &f;
        }
        std::ostringstream row;
        row.precision(17);
        row << "{Direction::"
            << (dir == Direction::Forward ? "Forward" : "Inverse")
            << ", TwiddleSource::" << kTwName[static_cast<int>(tw)] << ", "
            << pad << ", " << r.total_ms << ", " << r.mem_ms << ", "
            << r.compute_ms << ", " << r.dram_bytes << "u, 0x" << std::hex
            << bits << "ull},";
        if (pin == nullptr) {
          ADD_FAILURE() << "no pin for " << row.str();
          continue;
        }
        EXPECT_EQ(r.total_ms, pin->total_ms) << row.str();
        EXPECT_EQ(r.mem_ms, pin->mem_ms) << row.str();
        EXPECT_EQ(r.compute_ms, pin->compute_ms) << row.str();
        EXPECT_EQ(r.dram_bytes, pin->dram_bytes) << row.str();
        EXPECT_EQ(bits, pin->bits) << row.str();
        ++checked;
      }
    }
  }
  EXPECT_EQ(checked, std::size(kRealFinePins));
}

// ---------------------------------------------------------------------
// Sharded real plan
// ---------------------------------------------------------------------

std::vector<cxf> sharded_real_run(sim::DeviceGroup& group, std::size_t n,
                                  std::size_t shards, Direction dir,
                                  const std::vector<cxf>& padded) {
  ShardedFft3DPlan plan(group, PlanDesc::sharded_real3d(n, shards, dir));
  std::vector<cxf> data = padded;
  plan.execute(std::span<cxf>(data));
  return data;
}

TEST(ShardedReal, BitIdenticalAcrossDeviceCountsAndSpecMixes) {
  // Decimation arithmetic depends only on `shards`: any fleet reproduces
  // the group-of-one result bit for bit, including a mixed GT + GTX pair.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const Shape3 shape = cube(n);
  const auto reals = random_reals(shape.volume(), 23);
  const auto padded = pack_real_volume<float>(reals, shape);
  for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
    sim::DeviceGroup one(1, sim::geforce_8800_gts());
    const auto ref = sharded_real_run(one, n, shards, dir, padded);
    for (const std::size_t devices : {2u, 4u}) {
      sim::DeviceGroup group(devices, sim::geforce_8800_gts());
      const auto out = sharded_real_run(group, n, shards, dir, padded);
      EXPECT_TRUE(bit_identical(out, ref))
          << "devices=" << devices
          << " dir=" << (dir == Direction::Forward ? "fwd" : "inv");
    }
    sim::DeviceGroup mixed(
        {sim::geforce_8800_gt(), sim::geforce_8800_gtx()});
    const auto out = sharded_real_run(mixed, n, shards, dir, padded);
    EXPECT_TRUE(bit_identical(out, ref))
        << "mixed dir=" << (dir == Direction::Forward ? "fwd" : "inv");
  }
}

TEST(ShardedReal, MatchesSingleDeviceRealPlan) {
  // Different factorization (slab decimation vs five-step), same
  // transform: agreement to FFT tolerance with the resident plan.
  const std::size_t n = 64;
  const Shape3 shape = cube(n);
  const auto reals = random_reals(shape.volume(), 29);
  const auto padded = pack_real_volume<float>(reals, shape);

  Device dev(sim::geforce_8800_gts());
  const auto ref = device_real_fft(padded, shape, Direction::Forward, dev);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  const auto out =
      sharded_real_run(group, n, 4, Direction::Forward, padded);
  EXPECT_LT(rel_l2_error<float>(out, ref),
            fft_error_bound<float>(shape.volume()));
}

TEST(ShardedReal, RoundTripIsIdentity) {
  const std::size_t n = 64;
  const Shape3 shape = cube(n);
  const auto reals = random_reals(shape.volume(), 31);
  auto data = pack_real_volume<float>(reals, shape);

  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  ShardedFft3DPlan fwd(
      group, PlanDesc::sharded_real3d(n, 4, Direction::Forward));
  ShardedFft3DPlan inv(
      group, PlanDesc::sharded_real3d(n, 4, Direction::Inverse));
  fwd.execute(std::span<cxf>(data));
  inv.execute(std::span<cxf>(data));
  const auto recovered = unpack_real_volume<float>(data, shape);
  EXPECT_LT(rel_l2_error<float>(to_cx(recovered), to_cx(reals)),
            fft_error_bound<float>(shape.volume()));
}

TEST(ShardedReal, ExchangeMovesHalfTheComplexBytes) {
  // The host-staged all-to-all stages (n/2+1)/n of the complex bytes —
  // exactly, per leg, since every staged plane is (n/2+1)*n elements.
  const std::size_t n = 64;
  const std::size_t shards = 4;
  const auto creals = random_complex<float>(n * n * n, 37);
  const auto reals = random_reals(n * n * n, 37);
  auto cdata = creals;
  auto rdata = pack_real_volume<float>(reals, cube(n));

  sim::DeviceGroup cgroup(2, sim::geforce_8800_gts());
  ShardedFft3DPlan cplan(cgroup, n, shards, Direction::Forward);
  const auto ct = cplan.execute(std::span<cxf>(cdata));

  sim::DeviceGroup rgroup(2, sim::geforce_8800_gts());
  ShardedFft3DPlan rplan(
      rgroup, PlanDesc::sharded_real3d(n, shards, Direction::Forward));
  const auto rt = rplan.execute(std::span<cxf>(rdata));

  EXPECT_EQ(ct.exchange_bytes(), 2 * n * n * n * sizeof(cxf));
  EXPECT_EQ(rt.exchange_bytes(), 2 * (n / 2 + 1) * n * n * sizeof(cxf));
  EXPECT_EQ(rt.exchange_bytes() * n, ct.exchange_bytes() * (n / 2 + 1));
}

TEST(ShardedReal, RegistryFrontDoorAndGeometryChecks) {
  sim::DeviceGroup group(2, sim::geforce_8800_gts());
  auto& reg = PlanRegistry::of(group);
  const auto desc = PlanDesc::sharded_real3d(64, 4, Direction::Forward);
  EXPECT_EQ(desc.kind, PlanKind::Sharded3D);
  EXPECT_EQ(desc.layout, Layout::RealHalfSpectrum);
  auto plan = reg.get_or_create(desc);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(plan->buffer_elements(), (64 / 2 + 1) * 64 * 64u);
  EXPECT_EQ(reg.get_or_create(desc), plan);
  // The real and complex sharded descriptions are distinct cache keys.
  auto cplan =
      reg.get_or_create(PlanDesc::sharded3d(64, 4, Direction::Forward));
  EXPECT_NE(cplan, plan);

  // The front-door plan runs through the generic host entry point.
  const Shape3 shape = cube(64);
  auto data =
      pack_real_volume<float>(random_reals(shape.volume(), 41), shape);
  const auto steps = plan->execute_host(std::span<cxf>(data));
  EXPECT_EQ(steps.size(), 7u);
  EXPECT_GT(plan->last_total_ms(), 0.0);

  // Geometry guards: the real X fine pass needs n >= 32.
  EXPECT_THROW(ShardedFft3DPlan(
                   group, PlanDesc::sharded_real3d(16, 4, Direction::Forward)),
               Error);
  EXPECT_THROW(ShardedFft3DPlan(
                   group, PlanDesc::sharded_real3d(63, 4, Direction::Forward)),
               Error);
  // Half-spectrum plans run the slab decomposition only.
  auto* sharded = dynamic_cast<ShardedFft3DPlan*>(plan.get());
  ASSERT_NE(sharded, nullptr);
  EXPECT_THROW(sharded->set_decomposition(Decomposition::Pencil), Error);
}

TEST(ShardedReal, PipelinedBatchMatchesPerVolumeExecutes) {
  // The one sharded executor serves half-spectrum volumes through its
  // pipelined batch too: three volumes must come out exactly as three
  // execute() calls, host-staged on a tree and over peer legs on a mesh.
  const std::size_t n = 32;
  const Shape3 shape = cube(n);
  for (const bool peer : {false, true}) {
    for (const Direction dir : {Direction::Forward, Direction::Inverse}) {
      SCOPED_TRACE(std::string(peer ? "mesh " : "tree ") +
                   (dir == Direction::Forward ? "fwd" : "inv"));
      auto group =
          peer ? std::make_unique<sim::DeviceGroup>(
                     4, sim::geforce_8800_gts(),
                     std::make_shared<sim::PeerMeshTopology>(4))
               : std::make_unique<sim::DeviceGroup>(2, sim::geforce_8800_gts());
      ShardedFft3DPlan plan(*group, PlanDesc::sharded_real3d(n, 4, dir));
      std::vector<std::vector<cxf>> want;
      for (const std::uint64_t seed : {51u, 52u, 53u}) {
        want.push_back(pack_real_volume<float>(
            random_reals(shape.volume(), seed), shape));
      }
      auto batch = want;
      auto host_batch = want;
      for (auto& v : want) plan.execute(std::span<cxf>(v));
      EXPECT_EQ(plan.last_layout().exchange,
                peer ? Exchange::Peer : Exchange::HostStaged);

      std::vector<std::span<cxf>> volumes(batch.begin(), batch.end());
      const auto t = plan.execute_batch(volumes);
      ASSERT_EQ(t.volume_done_ms.size(), 3u);
      // The FftPlan batch entry point runs the same pipelined schedule.
      std::vector<std::span<cxf>> host_volumes(host_batch.begin(),
                                               host_batch.end());
      EXPECT_EQ(plan.execute_batch_host(host_volumes).size(), 7u);
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_TRUE(bit_identical(batch[i], want[i])) << "volume " << i;
        EXPECT_TRUE(bit_identical(host_batch[i], want[i])) << "volume " << i;
      }
    }
  }
}

}  // namespace
}  // namespace repro::gpufft
