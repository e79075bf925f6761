// fleet_mesh and fleet_chaos: an open loop of seeded traffic into
// serve::FftService on four simulated GTX 280s.
//
//   fleet_mesh   PeerMeshTopology, fault-free, VerifyPolicy::Off. Serving,
//                deal-vs-shard batching, the pipelined all-to-all over peer
//                legs and the planner's fabric models do the work; the
//                same launches repeat thousands of times.
//   fleet_chaos  the same traffic on PcieTreeTopology with all six fault
//                kinds armed (serve::chaos_schedule) and VerifyPolicy::
//                Parseval: host-staged checksummed exchange, retries,
//                recompute, quarantine/reinstate and DeviceLost re-shard.
//
// Set-up builds the group and drains one warm-up request per menu entry,
// then resets the clocks (arrivals start at t = 0 and the launch history
// holds only the timed run) and, for chaos, arms the faults.
#include <cmath>
#include <memory>
#include <numeric>
#include <string>

#include "bench.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "oracle.h"
#include "serve/chaos.h"
#include "serve/fft_service.h"
#include "sim/spec.h"

namespace perfbench {
namespace {

using repro::gpufft::Direction;
using repro::gpufft::PlanDesc;
namespace serve = repro::serve;

/// 180 requests leave 18 samples beyond the p90. Fewer let the few
/// fault-delayed requests of fleet_chaos decide its p90 from seed to seed.
constexpr std::size_t kRequests = 180;
constexpr std::size_t kDevices = 4;
/// Mean gap between arrivals, in simulated ms: 444 volumes/s offered.
/// Requests queue and fuse into batches at this rate, but the fleet keeps
/// up; at 1.5 ms the mesh fell behind (the last quarter of arrivals waited
/// 1.7x as long as the first).
constexpr double kMeanGapMs = 2.25;

/// Small sharded complex volumes, a sharded real volume and single-card
/// out-of-core volumes; the 48 and 36 edges run mixed-radix slabs.
std::vector<PlanDesc> menu() {
  return {
      PlanDesc::sharded3d(32, 4, Direction::Forward),
      PlanDesc::sharded3d(48, 4, Direction::Forward),
      PlanDesc::sharded3d(64, 4, Direction::Forward),
      PlanDesc::sharded_real3d(32, 4, Direction::Forward),
      PlanDesc::out_of_core(32, 4, Direction::Forward),
      PlanDesc::out_of_core(36, 4, Direction::Inverse),
  };
}

/// Seeded, paced traffic: every seed offers the same work at the same
/// rate. Requests come in blocks that hold each menu entry once, in a
/// seeded order; each block spans exactly one mean gap per request, split
/// by gaps drawn uniformly from [0.5, 1.5] mean before rescaling. With
/// exponential gaps instead, bursts alone moved the p90 latency by 10-20%
/// from seed to seed, more than any regression bound could absorb.
struct Traffic {
  std::vector<serve::FftRequest> requests;
  std::vector<std::vector<cxf>> inputs;
  std::vector<std::vector<cxf>> volumes;  ///< transformed in place
};

Traffic make_traffic(std::uint64_t seed) {
  const auto descs = menu();
  const std::size_t block = descs.size();
  REPRO_CHECK(kRequests % block == 0);
  repro::SplitMix64 rng(seed);
  Traffic t;
  t.inputs.reserve(kRequests);
  t.volumes.reserve(kRequests);
  for (std::size_t b = 0; b < kRequests / block; ++b) {
    std::vector<std::size_t> kinds(block);
    std::iota(kinds.begin(), kinds.end(), std::size_t{0});
    std::vector<double> gaps(block);
    for (std::size_t i = block - 1; i > 0; --i) {
      std::swap(kinds[i], kinds[rng.below(i + 1)]);
    }
    for (double& g : gaps) g = 0.5 + rng.uniform();
    const double scale = kMeanGapMs * static_cast<double>(block) /
                         std::accumulate(gaps.begin(), gaps.end(), 0.0);
    double arrival = kMeanGapMs * static_cast<double>(block * b);
    for (std::size_t i = 0; i < block; ++i) {
      arrival += gaps[i] * scale;
      const PlanDesc& desc = descs[kinds[i]];
      t.inputs.push_back(
          repro::random_complex<float>(desc.buffer_elements(), rng.next()));
      t.volumes.push_back(t.inputs.back());
      serve::FftRequest req;
      req.id = t.requests.size();
      req.desc = desc;
      req.data = std::span<cxf>(t.volumes.back());
      req.arrival_ms = arrival;
      t.requests.push_back(req);
    }
  }
  return t;
}

/// `counter` summed over the group's registry and every member's.
std::uint64_t registry_total(
    repro::sim::DeviceGroup& group,
    std::uint64_t (repro::gpufft::PlanRegistry::*counter)() const) {
  std::uint64_t total = (repro::gpufft::PlanRegistry::of(group).*counter)();
  for (std::size_t i = 0; i < group.size(); ++i) {
    total += (repro::gpufft::PlanRegistry::of(group.device(i)).*counter)();
  }
  return total;
}

/// A warmed-up service over a fresh group, and the traffic to send it.
struct Setup {
  std::unique_ptr<repro::sim::DeviceGroup> group;
  std::unique_ptr<serve::FftService> service;
  Traffic traffic;
};

Setup set_up(std::uint64_t seed, bool chaos) {
  Setup s;
  s.group = std::make_unique<repro::sim::DeviceGroup>(
      kDevices, repro::sim::geforce_gtx_280(),
      serve::chaos_topology(chaos ? "tree" : "mesh", kDevices));
  serve::ServiceConfig cfg;
  cfg.max_queue_depth = kRequests;
  cfg.exec.verify = chaos ? repro::gpufft::VerifyPolicy::Parseval
                          : repro::gpufft::VerifyPolicy::Off;
  s.service = std::make_unique<serve::FftService>(*s.group, cfg);
  const auto descs = menu();
  std::vector<std::vector<cxf>> warm;
  warm.reserve(descs.size());
  for (std::size_t i = 0; i < descs.size(); ++i) {
    warm.push_back(
        repro::random_complex<float>(descs[i].buffer_elements(), seed + i));
    serve::FftRequest req;
    req.id = i;
    req.desc = descs[i];
    req.data = std::span<cxf>(warm.back());
    s.service->submit(req);
  }
  REPRO_CHECK_MSG(s.service->run().completed == descs.size(),
                  "the warm-up drain did not complete");
  s.group->reset_clocks();
  if (chaos) serve::arm_faults(*s.group, serve::chaos_schedule(seed, kDevices));
  s.traffic = make_traffic(seed);
  return s;
}

Rep run_fleet(std::uint64_t seed, Tracer& tracer, bool chaos) {
  Rep rep;
  Setup setup = repeat_setup(
      rep, tracer, [&](Tracer&) { return set_up(seed, chaos); });
  repro::sim::DeviceGroup& group = *setup.group;
  serve::FftService& service = *setup.service;
  Traffic& traffic = setup.traffic;

  const repro::RecoveryScope recovery;
  serve::ServiceReport report;
  std::size_t refused = 0;
  const auto t_run = Clock::now();
  for (const auto& req : traffic.requests) {
    auto span = tracer.scope("serve.submit");
    if (service.submit(req) != serve::Admission::Accepted) ++refused;
  }
  {
    auto span = tracer.scope("serve.run");
    report = service.run();
  }
  rep.wall_s = seconds_since(t_run);
  const repro::RecoveryCounters rc = recovery.delta();

  // Oracle, outside the timed phase.
  Oracle oracle;
  rep.attempted = kRequests;
  rep.output_hash = kFnvBasis;
  std::vector<double> latency(kRequests, -1.0);  // -1: not completed OK
  std::size_t ok = 0;
  std::size_t sharded = 0;
  double max_rel = 0.0;
  {
    auto span = tracer.scope("fft.ref");
    for (const auto& c : report.completions) {
      const auto& req = traffic.requests[c.id];
      const Verdict v = oracle.check(req.desc, traffic.inputs[c.id], req.data);
      rep.output_hash =
          fnv1a(rep.output_hash, req.data.data(), req.data.size_bytes());
      max_rel = std::max(max_rel, v.rel_l2);
      if (c.strategy == repro::gpufft::BatchStrategy::Shard) ++sharded;
      if (v.ok) {
        ++ok;
        latency[c.id] = c.latency_ms;
      } else {
        ++rep.wrong;
      }
    }
  }
  // Every request must end exactly once: completed, failed with a typed
  // error, or refused. A lost request is a wrong answer too.
  if (report.completions.size() + report.failures.size() + refused !=
      kRequests) {
    ++rep.wrong;
  }

  // Latency percentiles over correct completions; goodput and ok_share
  // charge every failed or refused request as a miss.
  std::vector<double> done;
  std::size_t within = 0;
  for (const double l : latency) {
    if (l < 0.0) continue;
    done.push_back(l);
    if (l <= kLatencyLimitMs) ++within;
  }
  // Backlog growth: p50 latency of the last quarter of arrivals over the
  // first quarter (ids are in arrival order).
  const std::size_t q = kRequests / 4;
  std::vector<double> first, last;
  for (std::size_t i = 0; i < q; ++i) {
    if (latency[i] >= 0.0) first.push_back(latency[i]);
    if (latency[kRequests - q + i] >= 0.0) {
      last.push_back(latency[kRequests - q + i]);
    }
  }
  const double makespan_ms = report.makespan_ms;
  const double makespan_s = makespan_ms * 1e-3;

  rep.e2e = {
      {"peak_device_mb",
       static_cast<double>(group.peak_bytes_in_flight()) * 1e-6},
      {"ok_share", static_cast<double>(ok) / kRequests},
      {"max_rel_l2_err", max_rel},
      {"sim_volumes_per_s", static_cast<double>(ok) / makespan_s},
      {"sim_latency_p50_ms", repro::percentile(done, 0.5)},
      {"sim_latency_p90_ms", repro::percentile(done, 0.9)},
      {"sim_goodput_vps", static_cast<double>(within) / makespan_s},
  };

  std::vector<const repro::sim::Device*> devs;
  for (std::size_t i = 0; i < group.size(); ++i) devs.push_back(&group.device(i));
  add_device_counters(rep.layer, devs, makespan_ms);
  const double completed = static_cast<double>(report.completions.size());
  rep.layer.insert(
      rep.layer.end(),
      {
          {"serve.shard_share", completed > 0.0 ? sharded / completed : 0.0},
          {"serve.backlog_growth", first.empty() || last.empty()
                                       ? 0.0
                                       : repro::percentile(last, 0.5) /
                                             repro::percentile(first, 0.5)},
          {"serve.refused", static_cast<double>(refused)},
          {"serve.failed_typed", static_cast<double>(report.failures.size())},
          {"serve.quarantines", static_cast<double>(report.quarantines)},
          {"serve.reinstatements", static_cast<double>(report.reinstatements)},
          {"serve.device_lost_failovers",
           static_cast<double>(report.device_lost_failovers)},
          {"gpufft.recovery.transient_retries",
           static_cast<double>(rc.transient_retries)},
          {"gpufft.recovery.corruption_restages",
           static_cast<double>(rc.corruption_restages)},
          {"gpufft.recovery.oom_evictions",
           static_cast<double>(rc.oom_evictions)},
          {"gpufft.recovery.verify_failures",
           static_cast<double>(rc.verify_failures)},
          {"gpufft.recovery.verify_recomputes",
           static_cast<double>(rc.verify_recomputes)},
          {"gpufft.registry.misses",
           static_cast<double>(registry_total(
               group, &repro::gpufft::PlanRegistry::misses))},
          {"gpufft.planner.evals",
           static_cast<double>(registry_total(
               group, &repro::gpufft::PlanRegistry::tune_evaluations))},
      });

  if (tracer.on()) {
    const double run_s = tracer.total_s("serve.run");
    double launches = 0.0;
    for (const auto* d : devs) launches += static_cast<double>(d->history().size());
    rep.layer_host = {
        {"serve.submit_host_us_p50", median(tracer.durations_us("serve.submit"))},
        {"serve.run_host_s", run_s},
        {"sim.host_us_per_launch", run_s * 1e6 / launches},
        {"fft.ref_host_s", tracer.total_s("fft.ref")},
    };
  }
  return rep;
}

}  // namespace

Rep run_fleet_mesh(std::uint64_t seed, Tracer& tracer) {
  return run_fleet(seed, tracer, /*chaos=*/false);
}

Rep run_fleet_chaos(std::uint64_t seed, Tracer& tracer) {
  return run_fleet(seed, tracer, /*chaos=*/true);
}

}  // namespace perfbench
