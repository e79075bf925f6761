#include "bench.h"

#include <algorithm>

namespace perfbench {

Tracer::Scope::Scope(Tracer* tracer, std::string name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Span s;
  s.name = std::move(name);
  s.parent = tracer_->open_;
  s.start_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         tracer_->origin_)
                   .count();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(s));
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  Span& s = tracer_->spans_[static_cast<std::size_t>(index_)];
  s.dur_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                       tracer_->origin_)
                 .count() -
             s.start_us;
  tracer_->open_ = s.parent;
}

double Tracer::total_s(const std::string& name) const {
  double us = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) us += s.dur_us;
  }
  return us * 1e-6;
}

std::vector<double> Tracer::durations_us(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.dur_us);
  }
  return out;
}

void add_device_counters(Values& out,
                         std::span<const repro::sim::Device* const> devices,
                         double makespan_ms) {
  double launches = 0.0;
  double kernel_ms = 0.0;
  double overhead_ms = 0.0;
  double dram_bytes = 0.0;
  double pcie_bytes = 0.0;
  double dma_ms = 0.0;
  double busy_max = 0.0;
  for (const repro::sim::Device* dev : devices) {
    double busy = 0.0;
    for (const repro::sim::LaunchResult& l : dev->history()) {
      busy += l.total_ms;
      overhead_ms += l.total_ms - std::max(l.mem_ms, l.compute_ms);
      dram_bytes += static_cast<double>(l.dram_bytes);
    }
    launches += static_cast<double>(dev->history().size());
    kernel_ms += busy;
    busy_max = std::max(busy_max, busy);
    pcie_bytes += static_cast<double>(dev->h2d_bytes() + dev->d2h_bytes());
    dma_ms += dev->h2d_ms() + dev->d2h_ms();
  }
  const double members = static_cast<double>(devices.size());
  const double capacity_ms = members * makespan_ms;
  out.emplace_back("sim.launches", launches);
  out.emplace_back("sim.kernel_ms", kernel_ms);
  out.emplace_back("sim.overhead_ms", overhead_ms);
  out.emplace_back("sim.dram_mb", dram_bytes * 1e-6);
  out.emplace_back("sim.pcie_mb", pcie_bytes * 1e-6);
  out.emplace_back("sim.dma_ms", dma_ms);
  out.emplace_back("sim.compute_busy_share", kernel_ms / capacity_ms);
  out.emplace_back("sim.dma_busy_share", dma_ms / capacity_ms);
  out.emplace_back("sim.member_busy_max_over_mean",
                   kernel_ms > 0.0 ? busy_max / (kernel_ms / members) : 0.0);
}

std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace perfbench
