// Hardware specifications for the simulated devices.
//
// GpuSpec encodes Table 1 of the paper (GeForce 8800 GT / GTS / GTX) plus
// the G80/G92 architectural constants from the CUDA 1.x programming guide
// (warp size, register file, shared memory, occupancy limits, coalescing
// granularity) and the calibration constants of the performance model
// (DRAM timing, PCIe efficiency, launch overhead). Every simulated number in
// the repository derives from the values in this file — benches and tests
// share a single source of truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace repro::sim {

/// PCI-Express link generation of the card (Table 10 distinguishes the GTX's
/// PCIe 1.1 from the GT/GTS's PCIe 2.0).
enum class PcieGen { Gen1_1, Gen2_0 };

/// Per-direction sustained PCIe model: effective bandwidth + fixed latency.
struct PcieSpec {
  PcieGen gen{PcieGen::Gen2_0};
  double h2d_gbs{5.2};        ///< sustained host-to-device GB/s
  double d2h_gbs{5.0};        ///< sustained device-to-host GB/s
  double latency_us{20.0};    ///< per-transfer setup latency

  bool operator==(const PcieSpec&) const = default;
};

/// DRAM (GDDR3) timing-model parameters. The model is channels x banks of
/// 2 KB row buffers with an open-row policy; constants are calibrated once
/// against the paper's Table 4 corner cases and then reused everywhere.
struct DramSpec {
  int channels{4};              ///< bus_width_bits / 64
  int banks_per_channel{8};     ///< row buffers per channel
  std::size_t row_bytes{2048};  ///< row-buffer size
  std::size_t interleave{256};  ///< channel interleave granularity (bytes)
  double row_miss_ns{28.0};     ///< tRP + tRCD: precharge + activate
  double row_cycle_ns{14.0};    ///< tRC: minimum time between successive
                                ///< activates of the same bank
  double lookahead_ns{32.0};    ///< controller lookahead: activates issue
                                ///< this far ahead of need, hiding tRP+tRCD
                                ///< (but never violating tRC)
  double activate_channel_ns{1.0};  ///< command-bus cost per activate
  // Locality throttle, the paper's own criterion ("the addresses accessed
  // are close enough to each other, such that the memory access becomes
  // similar to that of the single stream copy", Section 3.1): a warp whose
  // recent accesses span more than spread_threshold_bytes pays up to
  // spread_penalty_ns of extra channel time per transaction, scaled with
  // log2 of the spread. Calibrated once against Table 4's corner values.
  std::size_t spread_threshold_bytes{1 << 20};
  double spread_penalty_ns{8.0};
  double spread_log_range{7.0};  ///< penalty saturates at threshold*2^range
  double peak_efficiency{0.88}; ///< fraction of pin bandwidth a perfect
                                ///< stream sustains (command overhead)

  bool operator==(const DramSpec&) const = default;
};

/// One CUDA GPU, as in the paper's Table 1.
struct GpuSpec {
  std::string name;
  std::string core;             ///< "G80" or "G92"
  int num_sms{16};
  int sps_per_sm{8};
  double sp_clock_ghz{1.35};

  // Per-SM resources (CUDA 1.x / compute capability 1.0-1.1).
  int registers_per_sm{8192};
  std::size_t shmem_per_sm{16 * 1024};
  int shmem_banks{16};  ///< shared-memory bank count (half-warp fabric)
  int max_threads_per_sm{768};
  int max_blocks_per_sm{8};
  int warp_size{32};

  // Device memory.
  std::size_t device_memory_bytes{512ull << 20};
  double mem_clock_mhz{1800.0};  ///< effective data rate (DDR)
  int bus_width_bits{256};
  DramSpec dram{};

  PcieSpec pcie{};

  /// Copy (DMA) engines for PCIe transfers. The G8x generation has a
  /// single engine shared by both directions, so concurrent uploads and
  /// downloads serialize on it; later parts (GT200 onwards) dedicate one
  /// engine per direction. Drives the stream scheduler's contention model
  /// (sim/stream.h) and the Section 4.4 overlap extension.
  int dma_engines{1};

  /// Double-precision throughput as a fraction of single-precision ops
  /// per cycle. 0 = no DP units (every GeForce 8800: "currently available
  /// CUDA GPUs support only single precision operations", Section 4.5);
  /// the GT200 generation the paper anticipates runs DP at 1/8 rate.
  double fp64_ratio{0.0};

  // Performance-model calibration.
  int threads_to_saturate_mem{128};  ///< threads/SM needed for full bandwidth
  double launch_overhead_us{10.0};
  double texture_cache_bytes{8 * 1024};  ///< per-SM texture cache
  double compute_efficiency{0.9};  ///< issue efficiency for ALU-bound code

  /// Peak single-precision GFLOPS counting MAD as 2 flops (Table 1).
  [[nodiscard]] double peak_gflops() const {
    return num_sms * sps_per_sm * sp_clock_ghz * 2.0;
  }
  /// Pin memory bandwidth in GB/s (Table 1).
  [[nodiscard]] double peak_bandwidth_gbs() const {
    return bus_width_bits / 8.0 * mem_clock_mhz * 1e-3;
  }
  [[nodiscard]] int total_sps() const { return num_sms * sps_per_sm; }

  /// Field-wise: equal specs give equal timing for equal launches.
  bool operator==(const GpuSpec&) const = default;
};

/// The three evaluation cards of Table 1.
GpuSpec geforce_8800_gt();
GpuSpec geforce_8800_gts();   // G92 "8800 GTS 512"
GpuSpec geforce_8800_gtx();

/// GT200-class card (GTX 280): the double-precision-capable generation the
/// paper's Section 4.5 anticipates ("GPUs with double precision support
/// are starting to appear"). Used by the fp64 extension benches.
GpuSpec geforce_gtx_280();

/// All three cards in the paper's presentation order (GT, GTS, GTX).
const std::vector<GpuSpec>& all_gpus();

/// One evaluation CPU (Table 5 / Table 11).
struct CpuSpec {
  std::string name;
  double clock_ghz{2.2};
  int cores{4};
  int sp_flops_per_cycle_per_core{8};  ///< SSE: 4-wide mul + add
  double stream_bw_gbs{9.5};           ///< STREAM-measured memory bandwidth
  // Per-axis effective bandwidth fractions for the FFTW-like 3-D model:
  // the X pass streams, Y/Z passes stride through the cache hierarchy.
  double axis_eff_x{0.80};
  double axis_eff_y{0.40};
  double axis_eff_z{0.30};
  double large_size_penalty{1.20};  ///< extra cost per doubling beyond 256

  [[nodiscard]] double peak_gflops() const {
    return clock_ghz * cores * sp_flops_per_cycle_per_core;
  }
};

CpuSpec amd_phenom_9500();
CpuSpec intel_core2_q6700();

/// Whole-system power model (Table 13): measured idle watts per
/// configuration and the additional draw while the named computation runs.
struct PowerSpec {
  std::string config;       ///< e.g. "8800 GTX" or "RIVA128 (CPU compute)"
  double idle_watts{126};
  double fft_load_watts{140};
};

PowerSpec power_cpu_riva128();
PowerSpec power_for_gpu(const GpuSpec& gpu);

}  // namespace repro::sim
