// perfbench: runs one named workload for a given time and prints its
// metrics as one JSON line. run.py builds this program and maps the line to
// the units and names of BENCHMARK.json; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// A run repeats the workload (set-up, timed phase, oracle) until its timed
// phases add up to --seconds. Every repetition must reproduce the simulated values and
// the output bits of the first one exactly. Untraced runs report the
// end-to-end metrics: host times as medians over the repetitions. Traced
// runs alternate untraced and traced repetitions and report the per-layer
// metrics, plus the tracing overhead as the difference of the two medians.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>

#include "bench.h"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_out;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload single_gtx|fleet_mesh|"
               "fleet_chaos --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool seen[4] = {};
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      seen[0] = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0' || val[0] == '-') usage("bad --seed");
      seen[1] = true;
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0)) {
        usage("bad --seconds");
      }
      seen[2] = true;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
      seen[3] = true;
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage("unknown flag " + key);
    }
  }
  for (const bool s : seen) {
    if (!s) usage("--workload, --seed, --seconds and --trace are required");
  }
  return a;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// Host timing from sanitizer or unoptimized builds says nothing about the
/// library, so such builds refuse to run.
void refuse_unfit_build() {
#ifdef PERFBENCH_SANITIZED
  std::cerr << "perfbench: refusing to time a sanitizer build\n";
  std::exit(2);
#endif
#ifndef NDEBUG
  std::cerr << "perfbench: refusing to time a build with assertions "
               "(Debug); configure Release\n";
  std::exit(2);
#endif
  const std::string type = PERFBENCH_BUILD_TYPE;
  if (type != "Release" && type != "RelWithDebInfo") {
    std::cerr << "perfbench: refusing to time a " << type << " build\n";
    std::exit(2);
  }
}

bool same_values(const Values& a, const Values& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bitwise: simulated values must repeat exactly, not approximately.
    if (a[i].first != b[i].first ||
        std::memcmp(&a[i].second, &b[i].second, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// Chrome trace-event JSON of `spans` (load in chrome://tracing/Perfetto).
void write_trace(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start_us
        << ",\"dur\":" << s.dur_us << ",\"args\":{\"parent\":\""
        << (s.parent < 0 ? "" : spans[static_cast<std::size_t>(s.parent)].name)
        << "\"}}";
  }
  out << "\n]}\n";
  if (!out) std::cerr << "perfbench: could not write " << path << '\n';
}

int run(const Args& args) {
  Rep (*workload)(std::uint64_t, Tracer&) = nullptr;
  if (args.workload == "single_gtx") workload = run_single_gtx;
  if (args.workload == "fleet_mesh") workload = run_fleet_mesh;
  if (args.workload == "fleet_chaos") workload = run_fleet_chaos;
  if (workload == nullptr) usage("unknown workload " + args.workload);

  double timed_s = 0.0;
  std::vector<Rep> reps;
  std::vector<bool> traced;
  std::unique_ptr<Tracer> last_trace;
  for (std::size_t i = 0;; ++i) {
    const bool on = args.trace && i % 2 == 1;
    auto tracer = std::make_unique<Tracer>(on);
    reps.push_back(workload(args.seed, *tracer));
    traced.push_back(on);
    if (on) last_trace = std::move(tracer);
    std::cerr << "perfbench: " << args.workload << " rep " << i
              << (on ? " (traced)" : "") << ": setup "
              << reps.back().setup_s << " s, timed " << reps.back().wall_s
              << " s\n";
    timed_s += reps.back().wall_s;
    if (timed_s >= args.seconds && (!args.trace || i >= 1)) break;
  }

  const Rep& first = reps.front();
  std::size_t attempted = 0;
  std::size_t wrong = 0;
  for (const Rep& r : reps) {
    attempted += r.attempted;
    wrong += r.wrong;
    if (!same_values(r.e2e, first.e2e) || !same_values(r.layer, first.layer) ||
        r.output_hash != first.output_hash) {
      std::cerr << "perfbench: simulated values or outputs differ between "
                   "repetitions of one seed\n";
      return 3;
    }
  }

  Values metrics;
  std::vector<double> setup, wall_off, wall_on;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    setup.push_back(reps[i].setup_s);
    (traced[i] ? wall_on : wall_off).push_back(reps[i].wall_s);
  }
  if (args.trace) {
    metrics = first.layer;
    const Values* host = nullptr;
    for (std::size_t i = 0; i < reps.size(); ++i) {
      if (traced[i]) host = &reps[i].layer_host;
    }
    for (std::size_t k = 0; k < host->size(); ++k) {
      std::vector<double> v;
      for (std::size_t i = 0; i < reps.size(); ++i) {
        if (traced[i]) v.push_back(reps[i].layer_host[k].second);
      }
      metrics.emplace_back((*host)[k].first, median(v));
    }
    metrics.emplace_back("bench.trace_overhead_s",
                         median(wall_on) - median(wall_off));
    if (!args.trace_out.empty()) {
      write_trace(args.trace_out, last_trace->spans());
    }
  } else {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    metrics = {
        {"host_wall_s", median(wall_off)},
        {"setup_s", median(setup)},
        {"host_peak_rss_mb", static_cast<double>(ru.ru_maxrss) * 1024e-6},
    };
    metrics.insert(metrics.end(), first.e2e.begin(), first.e2e.end());
  }

  std::string line = "{\"correct\": ";
  line += wrong == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(wrong);
  line += ", \"reps\": " + std::to_string(reps.size());
  line += ", \"build\": {\"compiler\": \"" + compiler() +
          "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].second)) {
      std::cerr << "perfbench: " << metrics[i].first << " is not finite\n";
      return 3;
    }
    char num[40];
    std::snprintf(num, sizeof num, "%.17g", metrics[i].second);
    line += (i ? ", \"" : "\"") + metrics[i].first + "\": " + num;
  }
  line += "}}";
  std::cout << line << std::endl;
  // A wrong answer fails the run, after reporting it.
  return wrong == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::refuse_unfit_build();
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 3;
  }
}
