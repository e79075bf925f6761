// Table 12: the 512^3 FFT that does not fit in device memory, streamed in
// two phases of eight 512x512x64 slabs over PCI-Express (Section 3.3),
// on all three cards plus the FFTW CPU row.
#include "bench_util.h"
#include "gpufft/registry.h"
#include "gpufft/sharded.h"

namespace repro::bench {
namespace {

struct PaperRow {
  double h2d1, fft1, twiddle, d2h1, h2d2, fft2, d2h2, total, gflops;
};
// Table 12 (times in seconds).
const PaperRow kPaper[3] = {
    {0.216, 0.360, 0.043, 0.217, 0.206, 0.062, 0.212, 1.32, 13.7},
    {0.217, 0.287, 0.042, 0.217, 0.207, 0.052, 0.216, 1.24, 14.6},
    {0.419, 0.224, 0.031, 0.322, 0.381, 0.033, 0.339, 1.75, 10.3}};

}  // namespace
}  // namespace repro::bench

int main(int argc, char** argv) {
  using namespace repro;
  bench::init(&argc, argv);
  bench::banner("Table 12 — out-of-core 512^3 FFT (times in seconds)");

  const std::size_t n = bench::pick<std::size_t>(512, 64);
  const Shape3 shape = cube(n);
  std::vector<cxf> host(shape.volume());  // 1 GB host volume (zeros are
                                          // fine: timing is data-blind)

  TextTable t;
  t.header({"Model", "H2D-1 (paper)", "FFT-1 (paper)", "Twiddle (paper)",
            "D2H-1 (paper)", "H2D-2 (paper)", "FFT-2 (paper)",
            "D2H-2 (paper)", "Total s (paper)", "GFLOPS (paper)"});
  int gi = 0;
  for (const auto& spec : sim::all_gpus()) {
    const auto& paper = bench::kPaper[gi++];
    sim::Device dev(spec);
    auto plan = std::dynamic_pointer_cast<gpufft::ShardedFft3DPlan>(
        gpufft::PlanRegistry::of(dev).get_or_create(gpufft::PlanDesc::out_of_core(
            n, 8, gpufft::Direction::Forward)));
    const gpufft::ShardTiming timing =
        plan->execute(std::span<cxf>(host)).devices[0];

    auto s = [](double ms) { return ms * 1e-3; };
    auto cell = [&](double ms, double paper_s) {
      return TextTable::fmt(s(ms), 3) + " (" + TextTable::fmt(paper_s, 3) +
             ")";
    };
    const double total_s = s(timing.busy_ms());
    const double gflops = bench::reported_gflops(shape, timing.busy_ms());
    t.row({spec.name, cell(timing.h2d1_ms, paper.h2d1),
           cell(timing.fft1_ms, paper.fft1),
           cell(timing.twiddle_ms, paper.twiddle),
           cell(timing.d2h1_ms, paper.d2h1),
           cell(timing.h2d2_ms, paper.h2d2),
           cell(timing.fft2_ms, paper.fft2),
           cell(timing.d2h2_ms, paper.d2h2),
           TextTable::fmt(total_s, 2) + " (" +
               TextTable::fmt(paper.total, 2) + ")",
           TextTable::fmt(gflops) + " (" + TextTable::fmt(paper.gflops) +
               ")"});
    bench::add_row({"outofcore512/" + spec.name, timing.busy_ms(),
                    {{"GFLOPS", gflops}}});
  }

  // FFTW row (paper: 1.93 s, 9.40 GFLOPS).
  const auto cpu = sim::cpu_fft3d_time(sim::amd_phenom_9500(), shape);
  t.row({"FFTW (Phenom)", "-", "-", "-", "-", "-", "-", "-",
         TextTable::fmt(cpu.total_ms * 1e-3, 2) + " (1.93)",
         TextTable::fmt(cpu.gflops) + " (9.40)"});
  bench::add_row({"outofcore512/FFTW_Phenom", cpu.total_ms,
                  {{"GFLOPS", cpu.gflops}}});
  t.print(std::cout);
  return bench::run_benchmarks(argc, argv);
}
