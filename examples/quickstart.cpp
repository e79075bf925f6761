// Quickstart: plan and run a 3-D FFT on a simulated GeForce 8800 GTX,
// verify the result against the host library, and look at the per-step
// timing the paper's Table 7 reports.
//
//   $ ./quickstart [n]        (default n = 128; any n — pow2 runs the
//                              five-step kernel, other sizes the
//                              mixed-radix/Bluestein plan)
#include <cstdlib>
#include <iostream>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/table.h"
#include "fft/plan.h"
#include "gpufft/cache.h"
#include "gpufft/registry.h"
#include "sim/cpumodel.h"

int main(int argc, char** argv) {
  using namespace repro;
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 128;
  const Shape3 shape = cube(n);
  std::cout << "3-D FFT of size " << n << "^3 on a simulated 8800 GTX\n\n";

  // 1. Make a device and upload a random volume.
  sim::Device dev(sim::geforce_8800_gtx());
  auto data = dev.alloc<cxf>(shape.volume());
  const auto input = random_complex<float>(shape.volume(), 2008);
  dev.h2d(data, std::span<const cxf>(input));

  // 2. Get a plan from the per-device registry and execute. dense3d is
  // the size router: pow2 X picks the paper's five-step plan, anything
  // else the mixed-radix/Bluestein plan. A second get_or_create with the
  // same description is a cache hit — twiddle tables and workspace are
  // shared across every plan on the device.
  auto& registry = gpufft::PlanRegistry::of(dev);
  auto plan = registry.get_or_create(
      gpufft::PlanDesc::dense3d(shape, gpufft::Direction::Forward));
  const auto steps = plan->execute(data);

  // 3. Download and verify against the host FFT library.
  std::vector<cxf> out(shape.volume());
  dev.d2h(std::span<cxf>(out), data);
  std::vector<cxf> ref = input;
  fft::Plan3D<float> host_plan(shape, fft::Direction::Forward);
  host_plan.execute(ref);
  const double err = rel_l2_error<float>(out, ref);

  // 4. Report.
  TextTable t;
  t.header({"step", "sim ms", "GB/s"});
  for (const auto& s : steps) {
    t.row({s.name, TextTable::fmt(s.ms, 2), TextTable::fmt(s.gbs)});
  }
  t.print(std::cout);
  const double gflops =
      sim::reported_fft_flops(shape) / (plan->last_total_ms() * 1e6);
  std::cout << "\ntotal " << TextTable::fmt(plan->last_total_ms(), 2)
            << " ms  ->  " << TextTable::fmt(gflops) << " GFLOPS"
            << "   (relative L2 error vs host FFT: " << err << ")\n";

  const auto& cache = gpufft::ResourceCache::of(dev);
  std::cout << "registry: " << registry.size() << " plan(s), "
            << registry.hits() << " hit(s); cache: "
            << cache.twiddle_tables() << " twiddle table(s), "
            << cache.workspace_pool_bytes() / 1024 << " KiB workspace; "
            << "launch memo: " << dev.launch_memo_hits() << " hit(s), "
            << dev.launch_memo_misses() << " miss(es)\n";
  return err < fft_error_bound<float>(shape.volume()) ? 0 : 1;
}
