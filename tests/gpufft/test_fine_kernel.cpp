// Correctness and behaviour of the fine-grained X-axis kernel (step 5).
#include "gpufft/fine_kernel.h"

#include <gtest/gtest.h>

#include <sstream>

#include "common/metrics.h"
#include "common/rng.h"
#include "fft/plan.h"

namespace repro::gpufft {
namespace {

struct Run {
  std::vector<cxf> result;
  sim::LaunchResult launch;
};

Run run_fine(std::size_t n, std::size_t count, Direction dir,
             TwiddleSource tw = TwiddleSource::Texture,
             std::uint64_t seed = 1) {
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(n * count);
  auto twd = dev.alloc<cxf>(n);
  const auto roots = make_roots<float>(n, dir);
  dev.h2d(twd, std::span<const cxf>(roots));
  const auto input = random_complex<float>(n * count, seed);
  dev.h2d(data, std::span<const cxf>(input));

  FineKernelParams p;
  p.n = n;
  p.count = count;
  p.dir = dir;
  p.twiddles = tw;
  p.grid_blocks = default_grid_blocks(dev.spec());
  FineFftKernel k(data, data, p, &twd);
  Run r;
  r.launch = dev.launch(k);
  r.result.resize(n * count);
  dev.d2h(std::span<cxf>(r.result), data);
  return r;
}

std::vector<cxf> host_reference(std::span<const cxf> in, std::size_t n,
                                std::size_t count, Direction dir) {
  std::vector<cxf> ref(in.begin(), in.end());
  fft::Plan1D<float> plan(n, dir);
  plan.execute(ref, count);
  return ref;
}

class FineSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FineSizes, MatchesHostPlanForward) {
  const std::size_t n = GetParam();
  const std::size_t count = 32;
  const auto input = random_complex<float>(n * count, n);
  Device dev(sim::geforce_8800_gts());
  auto data = dev.alloc<cxf>(n * count);
  auto twd = dev.alloc<cxf>(n);
  const auto roots = make_roots<float>(n, Direction::Forward);
  dev.h2d(twd, std::span<const cxf>(roots));
  dev.h2d(data, std::span<const cxf>(input));
  FineKernelParams p;
  p.n = n;
  p.count = count;
  p.grid_blocks = 8;
  p.threads_per_block =
      static_cast<unsigned>(std::max<std::size_t>(n / 4, 64));
  FineFftKernel k(data, data, p, &twd);
  dev.launch(k);
  std::vector<cxf> out(n * count);
  dev.d2h(std::span<cxf>(out), data);
  const auto ref = host_reference(input, n, count, Direction::Forward);
  EXPECT_LT(rel_l2_error<float>(out, ref), fft_error_bound<float>(n));
}

INSTANTIATE_TEST_SUITE_P(Pow2, FineSizes,
                         ::testing::Values(16, 32, 64, 128, 256, 512));

TEST(FineKernel, InverseMatchesHost) {
  const auto r = run_fine(256, 64, Direction::Inverse);
  Device dummy(sim::geforce_8800_gtx());
  const auto input = random_complex<float>(256 * 64, 1);
  const auto ref = host_reference(input, 256, 64, Direction::Inverse);
  EXPECT_LT(rel_l2_error<float>(r.result, ref),
            fft_error_bound<float>(256));
}

TEST(FineKernel, AllTwiddleSourcesAgree) {
  const std::size_t n = 256;
  const std::size_t count = 16;
  std::vector<std::vector<cxf>> results;
  for (TwiddleSource tw :
       {TwiddleSource::Registers, TwiddleSource::Constant,
        TwiddleSource::Texture, TwiddleSource::Recompute}) {
    results.push_back(run_fine(n, count, Direction::Forward, tw, 7).result);
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    EXPECT_LT(rel_l2_error<float>(results[i], results[0]), 1e-5)
        << "variant " << i;
  }
}

TEST(FineKernel, GlobalAccessesFullyCoalesced) {
  const auto r = run_fine(256, 4096, Direction::Forward);
  EXPECT_GT(r.launch.coalesced_fraction, 0.99);
}

TEST(FineKernel, PaddingAvoidsBankConflicts) {
  // With the paper's padded exchange the kernel must be close to the
  // memory roofline, not serialized on shared memory.
  const auto r = run_fine(256, 8192, Direction::Forward);
  EXPECT_TRUE(r.launch.compute_ms < 2.5 * r.launch.mem_ms);
}

TEST(FineKernel, Table8ScaleGflops) {
  // 65536 x 256-point on the GTX: paper reports 122 GFLOPS / 5.52 ms.
  // Check the simulated kernel lands in the right regime (3-9 ms).
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(65536ull * 256);
  auto twd = dev.alloc<cxf>(256);
  const auto roots = make_roots<float>(256, Direction::Forward);
  dev.h2d(twd, std::span<const cxf>(roots));
  FineKernelParams p;
  p.n = 256;
  p.count = 65536;
  p.grid_blocks = default_grid_blocks(dev.spec());
  FineFftKernel k(data, data, p, &twd);
  const auto r = dev.launch(k);
  EXPECT_GT(r.total_ms, 3.0);
  EXPECT_LT(r.total_ms, 9.0);
}

TEST(FineKernel, RejectsBadGeometry) {
  Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(1024);
  FineKernelParams p;
  p.n = 24;  // not a power of two
  p.count = 1;
  p.twiddles = TwiddleSource::Registers;
  EXPECT_THROW(FineFftKernel(data, data, p), Error);
}

/// FNV-1a over the raw bytes of a result (bit-exact output fingerprint).
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

struct FinePin {
  std::size_t n;
  TwiddleSource tw;
  unsigned pad;
  double total_ms;
  double mem_ms;
  double compute_ms;
  std::uint64_t dram_bytes;
  std::uint64_t bits;
};

// Exact results recorded while the stage engine still derived every index
// per access, so a change of access order, shared offset or twiddle index
// shows here. 40 waves plus three transforms per launch: blocks run past
// the sampling budget and the last wave leaves transform groups idle.
constexpr FinePin kFinePins[] = {
    {16, TwiddleSource::Registers, 0,
     0.29179628282820202, 0.28179628282820207, 0.042181532921810698,
     5245952u, 0x58f35a9423e5da63ull},
    {16, TwiddleSource::Registers, 16,
     0.29179628282820202, 0.28179628282820207, 0.042181532921810698,
     5245952u, 0x9bba0ff60558e4d2ull},
    {16, TwiddleSource::Constant, 0,
     0.29179628282820202, 0.28179628282820207, 0.046134465020576124,
     5245952u, 0x58f35a9423e5da63ull},
    {16, TwiddleSource::Constant, 16,
     0.29179628282820202, 0.28179628282820207, 0.046134465020576124,
     5245952u, 0x9bba0ff60558e4d2ull},
    {16, TwiddleSource::Texture, 0,
     0.29055448802030248, 0.28055448802030247, 0.042181532921810698,
     5246720u, 0x58f35a9423e5da63ull},
    {16, TwiddleSource::Texture, 16,
     0.29055448802030248, 0.28055448802030247, 0.042181532921810698,
     5246720u, 0x9bba0ff60558e4d2ull},
    {16, TwiddleSource::Recompute, 0,
     0.29179628282820202, 0.28179628282820207, 0.080129681069958839,
     5245952u, 0x58f35a9423e5da63ull},
    {16, TwiddleSource::Recompute, 16,
     0.29179628282820202, 0.28179628282820207, 0.080129681069958839,
     5245952u, 0x9bba0ff60558e4d2ull},
    {32, TwiddleSource::Registers, 0,
     0.29228113131305117, 0.28228113131305116, 0.060529012345679006,
     5248512u, 0x4eb7ca32f0814f25ull},
    {32, TwiddleSource::Registers, 16,
     0.29228113131305117, 0.28228113131305116, 0.056310905349794237,
     5248512u, 0x32f7f6ba3ea8fca3ull},
    {32, TwiddleSource::Constant, 0,
     0.29228113131305117, 0.28228113131305116, 0.068966872427983522,
     5248512u, 0x4eb7ca32f0814f25ull},
    {32, TwiddleSource::Constant, 16,
     0.29228113131305117, 0.28228113131305116, 0.064748765432098759,
     5248512u, 0x32f7f6ba3ea8fca3ull},
    {32, TwiddleSource::Texture, 0,
     0.28925868843088276, 0.27925868843088275, 0.060529012345679006,
     5250048u, 0x4eb7ca32f0814f25ull},
    {32, TwiddleSource::Texture, 16,
     0.28925868843088276, 0.27925868843088275, 0.056310905349794237,
     5250048u, 0x32f7f6ba3ea8fca3ull},
    {32, TwiddleSource::Recompute, 0,
     0.29228113131305117, 0.28228113131305116, 0.11115617283950616,
     5248512u, 0x4eb7ca32f0814f25ull},
    {32, TwiddleSource::Recompute, 16,
     0.29228113131305117, 0.28228113131305116, 0.10693806584362138,
     5248512u, 0x32f7f6ba3ea8fca3ull},
    {64, TwiddleSource::Registers, 0,
     0.079604525252526537, 0.069604525252526542, 0.059131995884773657,
     1313792u, 0x6ace01722d1bd8abull},
    {64, TwiddleSource::Registers, 16,
     0.079604525252526537, 0.069604525252526542, 0.052796193415637856,
     1313792u, 0x42480f0844e586d4ull},
    {64, TwiddleSource::Constant, 0,
     0.085763477366255142, 0.069604525252526542, 0.075763477366255147,
     1313792u, 0x6ace01722d1bd8abull},
    {64, TwiddleSource::Constant, 16,
     0.079604525252526537, 0.069604525252526542, 0.069427674897119332,
     1313792u, 0x42480f0844e586d4ull},
    {64, TwiddleSource::Texture, 0,
     0.080267393939395262, 0.070267393939395253, 0.059131995884773657,
     1316864u, 0x6ace01722d1bd8abull},
    {64, TwiddleSource::Texture, 16,
     0.080267393939395262, 0.070267393939395253, 0.052796193415637856,
     1316864u, 0x42480f0844e586d4ull},
    {64, TwiddleSource::Recompute, 0,
     0.12615421810699587, 0.069604525252526542, 0.11615421810699587,
     1313792u, 0x6ace01722d1bd8abull},
    {64, TwiddleSource::Recompute, 16,
     0.11981841563786007, 0.069604525252526542, 0.10981841563786007,
     1313792u, 0x42480f0844e586d4ull},
    {128, TwiddleSource::Registers, 0,
     0.079742949494950796, 0.069742949494950787, 0.068195267489711928,
     1316864u, 0xcfc15c7060dd5a59ull},
    {128, TwiddleSource::Registers, 16,
     0.079742949494950796, 0.069742949494950787, 0.063138477366255136,
     1316864u, 0x620b72c70dab2355ull},
    {128, TwiddleSource::Constant, 0,
     0.095394855967078182, 0.069742949494950787, 0.085394855967078173,
     1316864u, 0xcfc15c7060dd5a59ull},
    {128, TwiddleSource::Constant, 16,
     0.09033806584362139, 0.069742949494950787, 0.080338065843621395,
     1316864u, 0x620b72c70dab2355ull},
    {128, TwiddleSource::Texture, 0,
     0.08030298989899122, 0.070302989898991211, 0.068195267489711928,
     1323008u, 0xcfc15c7060dd5a59ull},
    {128, TwiddleSource::Texture, 16,
     0.08030298989899122, 0.070302989898991211, 0.063138477366255136,
     1323008u, 0x620b72c70dab2355ull},
    {128, TwiddleSource::Recompute, 0,
     0.14805205761316872, 0.069742949494950787, 0.13805205761316872,
     1316864u, 0xcfc15c7060dd5a59ull},
    {128, TwiddleSource::Recompute, 16,
     0.14299526748971192, 0.069742949494950787, 0.13299526748971191,
     1316864u, 0x620b72c70dab2355ull},
    {256, TwiddleSource::Registers, 0,
     0.081099588477366258, 0.069896565656566961, 0.071099588477366249,
     1323008u, 0x1473d5dd66fd5667ull},
    {256, TwiddleSource::Registers, 16,
     0.079896565656566956, 0.069896565656566961, 0.066042798353909457,
     1323008u, 0xa7fbdbaac184f912ull},
    {256, TwiddleSource::Constant, 0,
     0.098645267489711919, 0.069896565656566961, 0.088645267489711924,
     1323008u, 0x1473d5dd66fd5667ull},
    {256, TwiddleSource::Constant, 16,
     0.093588477366255141, 0.069896565656566961, 0.083588477366255146,
     1323008u, 0xa7fbdbaac184f912ull},
    {256, TwiddleSource::Texture, 0,
     0.08119349494949632, 0.071193494949496325, 0.071099588477366249,
     1335296u, 0x1473d5dd66fd5667ull},
    {256, TwiddleSource::Texture, 16,
     0.08119349494949632, 0.071193494949496325, 0.066042798353909457,
     1335296u, 0xa7fbdbaac184f912ull},
    {256, TwiddleSource::Recompute, 0,
     0.1576625514403292, 0.069896565656566961, 0.14766255144032919,
     1323008u, 0x1473d5dd66fd5667ull},
    {256, TwiddleSource::Recompute, 16,
     0.1526057613168724, 0.069896565656566961, 0.14260576131687239,
     1323008u, 0xa7fbdbaac184f912ull},
    {512, TwiddleSource::Registers, 0,
     0.16699588477366253, 0.069884565656568087, 0.15699588477366255,
     2646016u, 0xab7949f9508e09aaull},
    {512, TwiddleSource::Registers, 16,
     0.15941069958847734, 0.069884565656568087, 0.14941069958847733,
     2646016u, 0xb262246e0df475d9ull},
    {512, TwiddleSource::Constant, 0,
     0.20315061728395062, 0.069884565656568087, 0.19315061728395061,
     2646016u, 0xab7949f9508e09aaull},
    {512, TwiddleSource::Constant, 16,
     0.19556543209876542, 0.069884565656568087, 0.18556543209876541,
     2646016u, 0xb262246e0df475d9ull},
    {512, TwiddleSource::Texture, 0,
     0.16699588477366253, 0.070533030303032762, 0.15699588477366255,
     2670592u, 0xab7949f9508e09aaull},
    {512, TwiddleSource::Texture, 16,
     0.15941069958847734, 0.070533030303032762, 0.14941069958847733,
     2670592u, 0xb262246e0df475d9ull},
    {512, TwiddleSource::Recompute, 0,
     0.34564279835390943, 0.069884565656568087, 0.33564279835390942,
     2646016u, 0xab7949f9508e09aaull},
    {512, TwiddleSource::Recompute, 16,
     0.33805761316872424, 0.069884565656568087, 0.32805761316872423,
     2646016u, 0xb262246e0df475d9ull},
};

TEST(FineKernel, LaunchResultsPinned) {
  std::size_t checked = 0;
  for (const std::size_t n : {16, 32, 64, 128, 256, 512}) {
    for (const TwiddleSource tw :
         {TwiddleSource::Registers, TwiddleSource::Constant,
          TwiddleSource::Texture, TwiddleSource::Recompute}) {
      for (const unsigned pad : {0u, 16u}) {
        FineKernelParams p;
        p.n = n;
        p.dir = Direction::Forward;
        p.twiddles = tw;
        p.grid_blocks = 8;
        p.threads_per_block =
            static_cast<unsigned>(std::max<std::size_t>(n / 4, 64));
        p.shmem_pad_words = pad;
        p.count = 40 * p.grid_blocks * (p.threads_per_block / (n / 4)) + 3;

        Device dev(sim::geforce_8800_gtx());
        auto data = dev.alloc<cxf>(n * p.count);
        auto twd = dev.alloc<cxf>(n);
        const auto roots = make_roots<float>(n, p.dir);
        dev.h2d(twd, std::span<const cxf>(roots));
        const auto input = random_complex<float>(n * p.count, n + pad);
        dev.h2d(data, std::span<const cxf>(input));
        FineFftKernel k(data, data, p, &twd);
        const sim::LaunchResult r = dev.launch(k);
        std::vector<cxf> out(n * p.count);
        dev.d2h(std::span<cxf>(out), data);
        const std::uint64_t bits = fnv_bits(out);

        const FinePin* pin = nullptr;
        for (const FinePin& f : kFinePins) {
          if (f.n == n && f.tw == tw && f.pad == pad) pin = &f;
        }
        std::ostringstream row;
        row.precision(17);
        row << "{" << n << ", TwiddleSource::" << kTwName[static_cast<int>(tw)]
            << ", " << pad << ", " << r.total_ms << ", " << r.mem_ms << ", "
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
  EXPECT_EQ(checked, std::size(kFinePins));
}

TEST(FineKernel, ShmemFootprintMatchesPaperScale) {
  // n floats + padding: ~1.06 KB for a 256-point transform.
  EXPECT_EQ(FineFftKernel::shmem_bytes_per_transform(256),
            (255 + 255 / 16 + 1) * 4u);
  EXPECT_LT(FineFftKernel::shmem_bytes_per_transform(256), 1100u);
}

}  // namespace
}  // namespace repro::gpufft
