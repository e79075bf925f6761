// single_gtx: a closed loop on one simulated 8800 GTX. For each size, set-up
// builds a cold tuned plan; the timed phase runs one forward execute_host
// per size, each starting when the previous one returned. Every launch is
// distinct, so this workload is dominated by per-launch simulation and the
// planner, with no exchange, serving or faults. It is the only workload
// with paper reference values.
#include <memory>
#include <string>

#include "bench.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "gpufft/registry.h"
#include "oracle.h"
#include "paper.h"
#include "sim/cpumodel.h"
#include "sim/spec.h"

namespace perfbench {
namespace {

using repro::cube;
using repro::gpufft::Direction;
using repro::gpufft::PlanDesc;

/// The paper's Figures 1-3 and Table 7 sizes (five-step), then 100 (mixed
/// radix; the tuner pads its rows) and 97 (prime: Bluestein).
constexpr std::size_t kSizes[] = {64, 128, 256, 100, 97};

struct Point {
  std::size_t n = 0;
  std::string tag;  ///< "n64", the metric-name infix
  std::shared_ptr<repro::gpufft::FftPlan> plan;
  std::vector<cxf> input;
  std::vector<cxf> data;   ///< transformed in place by the timed phase
  std::uint64_t planner_evals = 0;
  std::vector<repro::gpufft::StepTiming> steps;
  std::size_t first_launch = 0;
  std::size_t end_launch = 0;
  double latency_ms = 0.0;  ///< simulated, upload + kernels + download
};

/// A device with a cold tuned plan and an input volume per size.
struct Setup {
  std::unique_ptr<repro::sim::Device> dev;
  std::vector<Point> points;
};

Setup set_up(std::uint64_t seed, Tracer& tracer) {
  Setup s;
  s.dev = std::make_unique<repro::sim::Device>(repro::sim::geforce_8800_gtx());
  auto& registry = repro::gpufft::PlanRegistry::of(*s.dev);
  for (const std::size_t n : kSizes) {
    Point p;
    p.n = n;
    p.tag = "n";
    p.tag += std::to_string(n);
    const std::uint64_t evals0 = registry.tune_evaluations();
    {
      auto span = tracer.scope("gpufft." + p.tag + ".plan");
      p.plan = registry.get_or_create_tuned(
          PlanDesc::dense3d(cube(n), Direction::Forward));
    }
    p.planner_evals = registry.tune_evaluations() - evals0;
    // execute_host takes dense volumes; a padded Mixed3D plan re-pitches
    // them itself.
    p.input = repro::random_complex<float>(
        cube(n).volume(), seed * 0x9E3779B97F4A7C15ull + n);
    p.data = p.input;
    s.points.push_back(std::move(p));
  }
  return s;
}

}  // namespace

Rep run_single_gtx(std::uint64_t seed, Tracer& tracer) {
  Rep rep;
  Setup setup = repeat_setup(
      rep, tracer, [seed](Tracer& t) { return set_up(seed, t); });
  repro::sim::Device& dev = *setup.dev;
  auto& registry = repro::gpufft::PlanRegistry::of(dev);
  std::vector<Point>& points = setup.points;

  dev.reset_clock();
  const auto t_run = Clock::now();
  for (Point& p : points) {
    p.first_launch = dev.history().size();
    const double t0_ms = dev.elapsed_ms();
    {
      auto span = tracer.scope("gpufft." + p.tag + ".exec");
      p.steps = p.plan->execute_host(p.data);
    }
    p.latency_ms = dev.elapsed_ms() - t0_ms;
    p.end_launch = dev.history().size();
  }
  rep.wall_s = seconds_since(t_run);
  const double makespan_ms = dev.elapsed_ms();

  // Oracle, outside the timed phase.
  Oracle oracle;
  std::size_t ok = 0;
  std::size_t ok_within_limit = 0;
  double max_rel = 0.0;
  std::vector<double> latencies;
  rep.output_hash = kFnvBasis;
  for (const Point& p : points) {
    Verdict v;
    {
      auto span = tracer.scope("fft." + p.tag + ".ref");
      v = oracle.check(p.plan->desc(), p.input, p.data);
    }
    rep.output_hash =
        fnv1a(rep.output_hash, p.data.data(), p.data.size() * sizeof(cxf));
    ++rep.attempted;
    max_rel = std::max(max_rel, v.rel_l2);
    latencies.push_back(p.latency_ms);
    if (v.ok) {
      ++ok;
      if (p.latency_ms <= kLatencyLimitMs) ++ok_within_limit;
    } else {
      ++rep.wrong;
    }
  }

  // Per-point simulated layers, and the paper comparison.
  double err_sum = 0.0;
  for (const Point& p : points) {
    double kernel_ms = 0.0, mem_ms = 0.0, compute_ms = 0.0, overhead_ms = 0.0;
    double dram = 0.0, coalesced = 0.0;
    for (std::size_t i = p.first_launch; i < p.end_launch; ++i) {
      const auto& l = dev.history()[i];
      kernel_ms += l.total_ms;
      mem_ms += l.mem_ms;
      compute_ms += l.compute_ms;
      overhead_ms += l.total_ms - std::max(l.mem_ms, l.compute_ms);
      dram += static_cast<double>(l.dram_bytes);
      coalesced += l.coalesced_fraction * static_cast<double>(l.dram_bytes);
    }
    const std::string s = "sim." + p.tag + ".";
    rep.layer.emplace_back(s + "sim_ms", kernel_ms);
    rep.layer.emplace_back(s + "launches",
                           static_cast<double>(p.end_launch - p.first_launch));
    rep.layer.emplace_back(s + "overhead_ms", overhead_ms);
    rep.layer.emplace_back(s + "mem_ms", mem_ms);
    rep.layer.emplace_back(s + "compute_ms", compute_ms);
    rep.layer.emplace_back(s + "dram_mb", dram * 1e-6);
    rep.layer.emplace_back(s + "coalesced_fraction",
                           dram > 0.0 ? coalesced / dram : 0.0);
    for (const auto& ref : paper::kGtxGflops) {
      if (ref.n != p.n) continue;
      const double gflops =
          repro::sim::reported_fft_flops(cube(p.n)) / (kernel_ms * 1e6);
      rep.layer.emplace_back(s + "paper_ratio", gflops / ref.gflops);
      err_sum += std::abs(gflops - ref.gflops) / ref.gflops;
    }
    rep.layer.emplace_back("gpufft." + p.tag + ".planner_evals",
                           static_cast<double>(p.planner_evals));
    if (p.n == 256) {
      REPRO_CHECK_MSG(p.steps.size() == 5,
                      "the 256^3 plan is no longer five steps");
      for (std::size_t k = 0; k < 5; ++k) {
        const std::string step = "gpufft.n256.step" + std::to_string(k + 1);
        rep.layer.emplace_back(step + "_ms", p.steps[k].ms);
        rep.layer.emplace_back(step + "_gbs", p.steps[k].gbs);
        rep.layer.emplace_back(step + "_paper_ratio",
                               p.steps[k].ms / paper::kGtxTable7Ms[k]);
      }
    }
  }
  const repro::sim::Device* devs[] = {&dev};
  add_device_counters(rep.layer, devs, makespan_ms);
  rep.layer.emplace_back("gpufft.registry.misses",
                         static_cast<double>(registry.misses()));
  rep.layer.emplace_back("gpufft.planner.evals",
                         static_cast<double>(registry.tune_evaluations()));

  const double volumes = static_cast<double>(points.size());
  const double makespan_s = makespan_ms * 1e-3;
  rep.e2e = {
      {"peak_device_mb", static_cast<double>(dev.peak_allocated_bytes()) * 1e-6},
      {"ok_share", static_cast<double>(ok) / volumes},
      {"max_rel_l2_err", max_rel},
      {"paper_gflops_err_pct",
       100.0 * err_sum / static_cast<double>(std::size(paper::kGtxGflops))},
      {"sim_volumes_per_s", static_cast<double>(ok) / makespan_s},
      {"sim_latency_p50_ms", repro::percentile(latencies, 0.5)},
      {"sim_latency_p90_ms", repro::percentile(latencies, 0.9)},
      {"sim_goodput_vps", static_cast<double>(ok_within_limit) / makespan_s},
  };

  if (tracer.on()) {
    double exec_s = 0.0;
    double ref_s = 0.0;
    for (const Point& p : points) {
      const double plan_s = tracer.total_s("gpufft." + p.tag + ".plan");
      const double run_s = tracer.total_s("gpufft." + p.tag + ".exec");
      exec_s += run_s;
      rep.layer_host.emplace_back("gpufft." + p.tag + ".plan_host_s", plan_s);
      rep.layer_host.emplace_back("gpufft." + p.tag + ".exec_host_s", run_s);
      const double check_s = tracer.total_s("fft." + p.tag + ".ref");
      ref_s += check_s;
      rep.layer_host.emplace_back("fft." + p.tag + ".ref_host_s", check_s);
    }
    rep.layer_host.emplace_back("fft.ref_host_s", ref_s);
    rep.layer_host.emplace_back(
        "sim.host_us_per_launch",
        exec_s * 1e6 / static_cast<double>(dev.history().size()));
  }
  return rep;
}

}  // namespace perfbench
