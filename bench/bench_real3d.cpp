// Extension study: the real-transform (r2c/c2r) plans vs the complex
// five-step kernel at equal logical size. A real volume's non-redundant
// half-spectrum is (nx/2+1)/nx of the complex working set, and the split
// layout (gpufft/real3d.h) keeps every row at a power-of-two pitch so the
// G80 coalescing rules hold; on a bandwidth-bound kernel the saved bytes
// convert directly into time. Two tables:
//   1. single device: simulated ms + amplification-corrected DRAM bytes
//      of forward/inverse complex vs real plans (the DRAM ratio is the
//      acceptance number, ~0.51 at 256^3);
//   2. sharded: the host-staged all-to-all of the multi-GPU plan, where
//      the real plan stages (n/2+1)*n bytes per plane instead of n*n —
//      the exchange is the multi-card bottleneck, so halving it matters
//      more than halving the on-card traffic.
#include "bench_util.h"
#include "gpufft/real3d.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);

  const std::size_t n = bench::pick<std::size_t>(256, 32);
  const std::size_t shards = bench::pick<std::size_t>(8, 2);
  const Shape3 shape = cube(n);
  bench::banner("Real (r2c/c2r) vs complex 3-D FFT, " + std::to_string(n) +
                "^3");

  // --- Single device: registry-obtained plans, DRAM traffic from the
  // launch history (amplification-corrected, so uncoalesced patterns are
  // charged honestly).
  sim::Device dev(sim::geforce_8800_gtx());
  auto& reg = gpufft::PlanRegistry::of(dev);

  struct Run {
    double ms{};
    std::uint64_t dram{};
  };
  auto run_plan = [&](const gpufft::PlanDesc& desc) {
    auto plan = reg.get_or_create(desc);
    auto buf = dev.alloc<cxf>(plan->buffer_elements());
    dev.reset_clock();
    plan->execute(buf);
    Run r;
    r.ms = dev.elapsed_ms();
    for (const auto& l : dev.history()) {
      r.dram += l.dram_bytes;
    }
    return r;
  };

  TextTable t;
  t.header({"plan", "sim ms", "DRAM MB", "GB/s", "vs complex"});
  for (const auto dir : {gpufft::Direction::Forward,
                         gpufft::Direction::Inverse}) {
    const char* dn = dir == gpufft::Direction::Forward ? "fwd" : "inv";
    const Run c = run_plan(gpufft::PlanDesc::bandwidth3d(shape, dir));
    const Run r = run_plan(gpufft::PlanDesc::real3d(shape, dir));
    const double dram_ratio =
        static_cast<double>(r.dram) / static_cast<double>(c.dram);
    t.row({std::string("complex ") + dn, TextTable::fmt(c.ms, 2),
           TextTable::fmt(c.dram / 1048576.0, 0),
           TextTable::fmt(c.dram / (c.ms * 1e6), 0), "1.00x"});
    t.row({std::string("real ") + dn, TextTable::fmt(r.ms, 2),
           TextTable::fmt(r.dram / 1048576.0, 0),
           TextTable::fmt(r.dram / (r.ms * 1e6), 0),
           TextTable::fmt(dram_ratio, 2) + "x DRAM, " +
               TextTable::fmt(r.ms / c.ms, 2) + "x time"});
    bench::add_row({std::string("real3d/") + dn + "/n:" + std::to_string(n),
                    r.ms,
                    {{"dram_ratio_vs_complex", dram_ratio},
                     {"time_ratio_vs_complex", r.ms / c.ms}}});
  }
  t.print(std::cout);
  std::cout << "\n";

  // --- Sharded: equal-N complex vs real all-to-all across a two-card
  // group on the shared host bridge.
  const std::size_t devices = 2;
  sim::DeviceGroup group(devices, sim::geforce_8800_gts());
  std::vector<cxf> cvolume(n * n * n);
  gpufft::ShardedFft3DPlan cplan(group, n, shards,
                                 gpufft::Direction::Forward);
  const auto ctiming = cplan.execute(std::span<cxf>(cvolume));

  std::vector<cxf> rvolume((n / 2 + 1) * n * n);
  gpufft::ShardedFft3DPlan rplan(
      group,
      gpufft::PlanDesc::sharded_real3d(n, shards, gpufft::Direction::Forward));
  const auto rtiming = rplan.execute(std::span<cxf>(rvolume));

  const double exch_ratio = static_cast<double>(rtiming.exchange_bytes()) /
                            static_cast<double>(ctiming.exchange_bytes());
  TextTable s;
  s.header({"plan", "makespan ms", "exchange MB", "exch frac",
            "vs complex"});
  s.row({"sharded complex", TextTable::fmt(ctiming.makespan_ms, 1),
         TextTable::fmt(ctiming.exchange_bytes() / 1048576.0, 0),
         TextTable::fmt(100.0 * ctiming.exchange_fraction(), 0) + "%",
         "1.00x"});
  s.row({"sharded real", TextTable::fmt(rtiming.makespan_ms, 1),
         TextTable::fmt(rtiming.exchange_bytes() / 1048576.0, 0),
         TextTable::fmt(100.0 * rtiming.exchange_fraction(), 0) + "%",
         TextTable::fmt(exch_ratio, 2) + "x exchange, " +
             TextTable::fmt(rtiming.makespan_ms / ctiming.makespan_ms, 2) +
             "x time"});
  s.print(std::cout);
  bench::add_row({"sharded_real3d/devices:" + std::to_string(devices) +
                      "/n:" + std::to_string(n),
                  rtiming.makespan_ms,
                  {{"exchange_ratio_vs_complex", exch_ratio},
                   {"makespan_ratio_vs_complex",
                    rtiming.makespan_ms / ctiming.makespan_ms}}});

  std::cout << "\nThe real plan's saving is layout arithmetic: every pass "
               "touches (n/2+1)/n of the complex bytes ("
            << TextTable::fmt(100.0 * (n / 2 + 1) /
                                  static_cast<double>(n), 1)
            << "% at n=" << n
            << "), and the split layout keeps the rank and fine kernels "
               "coalesced so the saving is not given back as 32-byte "
               "replays. Sharded, the same fraction comes off the "
               "host-staged all-to-all — the term that bounds multi-card "
               "scaling — so the makespan ratio tracks the exchange ratio "
               "more closely than the on-card one.\n";
  return bench::run_benchmarks(argc, argv);
}
