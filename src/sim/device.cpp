#include "sim/device.h"

#include <algorithm>
#include <exception>
#include <string_view>
#include <type_traits>
#include <typeinfo>
#include <utility>

namespace repro::sim {

Device::Device(GpuSpec spec) : spec_(std::move(spec)) {
  REPRO_CHECK_MSG(spec_.dma_engines == 1 || spec_.dma_engines == 2,
                  "GpuSpec.dma_engines must be 1 or 2");
  REPRO_CHECK_MSG(spec_.shmem_banks > 0, "GpuSpec.shmem_banks must be > 0");
  options_.shmem_banks = spec_.shmem_banks;
}

Device::~Device() {
  // Detach any streams that outlive the device (their destructors become
  // no-ops instead of touching freed memory).
  for (Stream* s : streams_) s->dev_ = nullptr;
}

Allocation Device::allocate_raw(std::size_t bytes) {
  if (faults_ != nullptr) {
    check_alive();
    if (faults_->fire(FaultKind::AllocFail)) {
      throw OutOfDeviceMemory(device_ref(), bytes,
                              spec_.device_memory_bytes - allocated_bytes_,
                              spec_.device_memory_bytes, /*injected=*/true);
    }
  }
  if (allocated_bytes_ + bytes > spec_.device_memory_bytes) {
    throw OutOfDeviceMemory(device_ref(), bytes,
                            spec_.device_memory_bytes - allocated_bytes_,
                            spec_.device_memory_bytes);
  }
  // Bump allocator over a virtual address space, 256-byte aligned so the
  // coalescing alignment rules behave as on real allocations.
  Allocation a;
  a.base_addr = (next_addr_ + 255) / 256 * 256;
  a.bytes = bytes;
  next_addr_ = a.base_addr + bytes;
  allocated_bytes_ += bytes;
  peak_allocated_bytes_ = std::max(peak_allocated_bytes_, allocated_bytes_);
  ++alloc_count_;
  return a;
}

void Device::free_raw(const Allocation& a) {
  REPRO_CHECK(allocated_bytes_ >= a.bytes);
  allocated_bytes_ -= a.bytes;
}

void Device::register_stream(Stream* s) { streams_.push_back(s); }

void Device::unregister_stream(Stream* s) {
  // Destroying a stream synchronizes it: its timeline folds into the
  // serial clock so the makespan survives the stream object.
  clock_ns_ = std::max(clock_ns_, s->ready_ns_);
  std::erase(streams_, s);
}

double& Device::engine_free_ns(Engine e) {
  switch (e) {
    case Engine::Compute: return compute_free_ns_;
    case Engine::DmaH2D: return dma_free_ns_[0];
    default:
      // A second copy engine serves downloads only where the spec has one;
      // G8x-class cards share the single engine between directions.
      return dma_free_ns_[spec_.dma_engines == 2 ? 1 : 0];
  }
}

double Device::schedule(Stream* stream, Engine engine, double ns,
                        std::string name) {
  double& engine_free = engine_free_ns(engine);
  last_op_ms_ = ns * 1e-6;
  if (stream == nullptr) {
    // Serial default queue: legacy default-stream semantics — join every
    // live stream, run, and advance the clock synchronously. With no
    // streams in flight this is exactly the pre-stream serial behaviour.
    double start = clock_ns_;
    for (const Stream* s : streams_) start = std::max(start, s->ready_ns_);
    clock_ns_ = start + ns;
    engine_free = std::max(engine_free, clock_ns_);
    return start;
  }
  // Async op: starts when the stream's prior work, the engine's FIFO, and
  // the submitting (serial) timeline all permit.
  const double start =
      std::max({stream->ready_ns_, engine_free, clock_ns_});
  stream->ready_ns_ = start + ns;
  engine_free = start + ns;
  stream->ops_.push_back(StreamOp{std::move(name), engine, start,
                                  start + ns});
  return start;
}

void Device::record_transfer(TransferDir dir, std::uint64_t bytes) {
  const double ns = pcie_transfer_ns(spec_.pcie, dir, bytes);
  if (dir == TransferDir::HostToDevice) {
    schedule(active_stream_, Engine::DmaH2D, ns, "h2d");
    h2d_ns_ += ns;
    h2d_bytes_ += bytes;
  } else {
    schedule(active_stream_, Engine::DmaD2H, ns, "d2h");
    d2h_ns_ += ns;
    d2h_bytes_ += bytes;
  }
}

LaunchResult Device::launch(Kernel& kernel) {
  const LaunchConfig cfg = kernel.config();
  REPRO_CHECK(cfg.grid_blocks > 0 && cfg.threads_per_block > 0);

  if (faults_ != nullptr && !launch_admitted(cfg.name)) {
    // Rejected at dispatch: the kernel never ran, no time is charged.
    // Synchronous rejections throw from launch_admitted; this path is the
    // asynchronous one, where the stream now carries the sticky error.
    return LaunchResult{};
  }

  std::string key = launch_memo_key(kernel, cfg);
  LaunchMemo& memo_map = *launch_memo_;
  const auto memo = key.empty() ? memo_map.end() : memo_map.find(key);
  const bool hit = memo != memo_map.end();

  LaunchStats stats;
  stats.total_threads =
      static_cast<std::uint64_t>(cfg.grid_blocks) * cfg.threads_per_block;

  const unsigned warps_per_block = (cfg.threads_per_block + 31) / 32;
  const unsigned sampled_blocks =
      hit ? 0
          : std::min<unsigned>(cfg.grid_blocks, options_.max_sampled_blocks);
  stats.warp_streams.resize(static_cast<std::size_t>(sampled_blocks) *
                            warps_per_block);
  const auto tex_lines = static_cast<std::size_t>(
      spec_.texture_cache_bytes / kMinTransactionBytes);

  // KernelCorrupt: decide before the blocks run so the last global store
  // of the launch can be captured; the kernel still runs every block and
  // claims its full simulated time below — only the data goes wrong.
  StoreTarget corrupt_target;
  StoreTarget* capture =
      faults_ != nullptr && faults_->fire(FaultKind::KernelCorrupt)
          ? &corrupt_target
          : nullptr;

  const unsigned run_blocks = hit && dry_ ? 0 : cfg.grid_blocks;
  for (unsigned b = 0; b < run_blocks; ++b) {
    const bool recording = b < sampled_blocks;
    BlockCtx ctx(cfg, stats, options_, b, recording,
                 static_cast<std::size_t>(b) * warps_per_block, tex_lines,
                 capture);
    kernel.run_block(ctx);
  }
  if (capture != nullptr && corrupt_target.valid()) {
    corrupt_target.corrupt(corrupt_target.ptr);
  }

  LaunchResult result;
  if (hit) {
    result = memo->second;
    ++launch_memo_hits_;
  } else {
    result = estimate_launch(spec_, cfg, stats);
    ++launch_memo_misses_;
    if (!key.empty()) {
      if (memo_map.size() >= kLaunchMemoCapacity) memo_map.clear();
      memo_map.emplace(std::move(key), result);
    }
  }
  schedule(active_stream_, Engine::Compute, result.total_ms * 1e6,
           cfg.name);
  history_.push_back(result);
  return result;
}

namespace {

template <typename V>
void append_bytes(std::string& key, const V& v) {
  static_assert(std::is_trivially_copyable_v<V>);
  key.append(reinterpret_cast<const char*>(&v), sizeof v);
}

void append_string(std::string& key, std::string_view s) {
  append_bytes(key, s.size());
  key.append(s);
}

}  // namespace

std::string Device::launch_memo_key(const Kernel& kernel,
                                    const LaunchConfig& cfg) const {
  std::vector<std::uint64_t> words;
  kernel.timing_key(words);
  if (words.empty()) return {};
  std::string key;
  append_string(key, typeid(kernel).name());
  append_string(key, cfg.name);
  append_bytes(key, cfg.grid_blocks);
  append_bytes(key, cfg.threads_per_block);
  append_bytes(key, cfg.regs_per_thread);
  append_bytes(key, cfg.shmem_per_block);
  append_bytes(key, cfg.total_flops);
  append_bytes(key, cfg.fma_fraction);
  append_bytes(key, cfg.extra_cycles_per_thread);
  append_bytes(key, cfg.fp64);
  append_bytes(key, options_.sample_accesses_per_thread);
  append_bytes(key, options_.max_sampled_blocks);
  append_bytes(key, options_.shmem_banks);
  key.append(reinterpret_cast<const char*>(words.data()),
             words.size() * sizeof(std::uint64_t));
  return key;
}

double Device::submit_timed(Stream& stream, Engine engine, double ms,
                            std::string name) {
  REPRO_CHECK(ms >= 0.0);
  return schedule(&stream, engine, ms * 1e6, std::move(name)) * 1e-6;
}

void Device::sync(Stream& stream) {
  clock_ns_ = std::max(clock_ns_, stream.ready_ns_);
  // Surface the stream's sticky async error (cudaStreamSynchronize). The
  // clock is folded first: the failed attempt's time stays charged.
  if (stream.poisoned()) std::rethrow_exception(stream.error());
}

void Device::sync_all() {
  std::exception_ptr first_error;
  for (const Stream* s : streams_) {
    clock_ns_ = std::max(clock_ns_, s->ready_ns_);
    if (first_error == nullptr && s->error_ != nullptr) {
      first_error = s->error_;
    }
  }
  if (first_error != nullptr) std::rethrow_exception(first_error);
}

double Device::elapsed_ms() const {
  double ns = clock_ns_;
  for (const Stream* s : streams_) ns = std::max(ns, s->ready_ns_);
  return ns * 1e-6;
}

void Device::reset_clock() {
  clock_ns_ = 0.0;
  h2d_ns_ = 0.0;
  d2h_ns_ = 0.0;
  h2d_bytes_ = 0;
  d2h_bytes_ = 0;
  history_.clear();
  compute_free_ns_ = 0.0;
  dma_free_ns_[0] = dma_free_ns_[1] = 0.0;
  for (Stream* s : streams_) {
    s->ready_ns_ = 0.0;
    s->ops_.clear();
  }
}

void Device::advance_clock_to_ms(double ms) {
  clock_ns_ = std::max(clock_ns_, ms * 1e6);
}

void Device::reset_peak_stats() {
  peak_allocated_bytes_ = allocated_bytes_;
  alloc_count_ = 0;
}

void Device::check_stream_ok() const {
  // CUDA semantics: work submitted to a failed stream is rejected at the
  // API call, before it reaches the hardware — it does not count as an
  // occurrence for the injector.
  if (active_stream_ != nullptr && active_stream_->poisoned()) {
    std::rethrow_exception(active_stream_->error());
  }
}

void Device::check_alive() {
  if (lost_) throw DeviceLostError(device_ref());
  if (faults_->fire(FaultKind::DeviceLost)) {
    lost_ = true;
    throw DeviceLostError(device_ref());
  }
}

bool Device::transfer_admitted(TransferDir dir, std::size_t bytes) {
  check_stream_ok();
  check_alive();
  if (!faults_->fire(FaultKind::TransferTransient)) return true;
  // The failed attempt still occupied the link: charge its full PCIe time
  // (and byte accounting) before reporting the loss of the payload.
  record_transfer(dir, bytes);
  TransientTransferError err(
      device_ref(), dir == TransferDir::HostToDevice ? "h2d" : "d2h", bytes);
  if (active_stream_ != nullptr) {
    active_stream_->fail(std::make_exception_ptr(std::move(err)));
    return false;
  }
  throw err;
}

bool Device::launch_admitted(const std::string& kernel_name) {
  check_stream_ok();
  check_alive();
  if (!faults_->fire(FaultKind::LaunchFail)) return true;
  KernelLaunchError err(device_ref(), kernel_name);
  if (active_stream_ != nullptr) {
    active_stream_->fail(std::make_exception_ptr(std::move(err)));
    return false;
  }
  throw err;
}

void Device::maybe_corrupt(void* payload, std::size_t bytes) {
  // fire() first so the occurrence is counted even for empty payloads.
  if (!faults_->fire(FaultKind::TransferCorrupt) || bytes == 0) return;
  // A single bit flip mid-payload: delivered, wrong, and invisible until
  // someone verifies — exactly what the checksummed staging layer is for.
  static_cast<unsigned char*>(payload)[bytes / 2] ^= 0x40u;
}

}  // namespace repro::sim
