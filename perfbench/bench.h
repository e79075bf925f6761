// Shared pieces of the repository benchmark: named values, the span
// tracer, host statistics, and the simulated-device counters every
// workload reads after its timed phase.
//
// The benchmark measures each layer from outside: it times its own calls
// into the public entry points of gpufft, serve, fft and sim, and reads
// their public counters after each call. Nothing here reaches into the
// library's internals.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "sim/device.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Metric values by name, in the order they were added.
using Values = std::vector<std::pair<std::string, double>>;

/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// the top); times are host microseconds since the tracer was created.
struct Span {
  std::string name;
  int parent = -1;
  double start_us = 0.0;
  double dur_us = 0.0;
};

/// Spans around the benchmark's calls into each layer, kept in memory.
/// A disabled tracer records nothing and reads no clock, so the untraced
/// runs that give the end-to-end metrics carry no tracing.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  class Scope {
   public:
    Scope(Tracer* tracer, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Open a span that closes when the returned scope ends.
  [[nodiscard]] Scope scope(std::string name) {
    return Scope(on_ ? this : nullptr, std::move(name));
  }

  [[nodiscard]] bool on() const { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Summed duration, in seconds, of every span called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  /// Durations, in microseconds, of every span called `name`.
  [[nodiscard]] std::vector<double> durations_us(
      const std::string& name) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  int open_ = -1;  ///< innermost open span
};

/// What one repetition of a workload measured. `e2e` and `layer` hold
/// simulated values and counts, which must repeat exactly from one
/// repetition to the next; `layer_host` holds host times read from the
/// trace (empty when the repetition ran untraced).
struct Rep {
  double setup_s = 0.0;  ///< host seconds of set-up
  double wall_s = 0.0;   ///< host seconds of the timed phase
  std::size_t attempted = 0;
  std::size_t wrong = 0;  ///< outputs the oracle rejected, or lost requests
  std::uint64_t output_hash = 0;  ///< FNV-1a over every checked output
  Values e2e;
  Values layer;
  Values layer_host;
};

/// One repetition of a workload: set up, run the timed phase, check every
/// output against the host library.
Rep run_single_gtx(std::uint64_t seed, Tracer& tracer);
Rep run_fleet_mesh(std::uint64_t seed, Tracer& tracer);
Rep run_fleet_chaos(std::uint64_t seed, Tracer& tracer);

/// Latency limit for goodput: a request counts toward goodput only when it
/// completes correctly within this many simulated milliseconds of its
/// arrival. Failed and refused requests always miss it.
inline constexpr double kLatencyLimitMs = 20.0;

inline double median(std::vector<double> v) {
  return repro::percentile(std::move(v), 0.5);
}

/// Set-ups per repetition; setup_s is their median.
inline constexpr std::size_t kSetups = 3;

/// Run `setup(tracer)` kSetups times, store the median host seconds in
/// rep.setup_s and return the last result. Only the last one is traced, and
/// the earlier results are destroyed outside the timed span.
template <typename F>
auto repeat_setup(Rep& rep, Tracer& tracer, F&& setup) {
  Tracer off(false);
  std::vector<double> seconds;
  for (std::size_t k = 0;; ++k) {
    const bool last = k + 1 == kSetups;
    const auto t0 = Clock::now();
    auto state = setup(last ? tracer : off);
    seconds.push_back(seconds_since(t0));
    if (last) {
      rep.setup_s = median(seconds);
      return state;
    }
  }
}

/// Totals of the launch history and transfer counters of `devices` since
/// their clocks were last reset, as the shared `sim.*` per-layer metrics.
/// `makespan_ms` is the simulated span the busy shares divide by.
void add_device_counters(Values& out, std::span<const repro::sim::Device* const> devices,
                         double makespan_ms);

/// Fold `bytes` into an FNV-1a hash.
std::uint64_t fnv1a(std::uint64_t h, const void* bytes, std::size_t n);

inline constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

}  // namespace perfbench
