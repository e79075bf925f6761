// The Section 3.3 Z-decimation on one card or sharded across a
// sim::DeviceGroup — the library's one executor of that schedule.
//
// The out-of-core algorithm splits an n^3 volume into `splits` interleaved
// Z slabs that stream over PCIe; "one card, eight slabs" generalizes to
// "N cards, splits/N slabs each":
//
//   Phase 1 (device d = I mod N, residue I):
//     1A. send the n x n x (n/splits) slab of planes z = I + splits*j
//     1B. 3-D FFT of the slab (full X and Y, n/splits-point partial Z)
//     1C. multiply the inter-rank twiddles W_n^(I * k')
//     1D. receive the slab into the exchange at planes z' = I + splits*k'
//   all-to-all exchange:                        host-staged or peer legs
//   Phase 2 (device e, groups k' in e's block):
//     2A. send the `splits` contiguous planes starting at splits*k'
//     2B. splits-point FFTs along Z for every (x, y) ("1 x 1 x 8 FFTs")
//     2C. receive into the result at planes z = k' + (n/splits)*k''
//
// Every phase-2 group gathers one plane from each residue, i.e. from
// every card. On a PCIe tree (the default; G8x cards had no peer path)
// that all-to-all is host-staged: phase 1's downloads land in one host
// work volume that phase 2's uploads read back, so the exchange IS the
// d2h1/h2d2 traffic, behind one group-wide barrier — on one card, the
// data crosses the link twice each way, which is what Table 12
// quantifies. On peer fabrics (mesh, torus) each residue's planes leave
// the producer as DeviceGroup::d2d_async legs in ring order into
// per-member receive buffers, phase 2 runs there in place, and each
// member starts when its own receives (a per-member Event) and phase-1
// tails are done. Peer fabrics also allow the *pencil* decomposition:
// each member owns one (plane group, Y block) unit, so N grows past
// min(shards, local_nz); choose_decomposition (planner.h) prices slab
// against pencil.
//
// Per device the schedule double-buffers two slab leases over two
// streams, so slab r+1's upload and slab r-1's download overlap slab r's
// on-card FFT wherever the card's copy engines allow (Section 4.4). The
// bucket sums (Table 12 rows) are schedule-independent; makespan_ms
// carries the overlapped wall-clock. Decimation arithmetic depends only
// on `shards`, so results are bit-identical across device counts, spec
// mixes, fabrics and decompositions, and across a DeviceLost: the run
// re-shards over the survivors, down to one card, re-running only what
// the loss tore and restoring a torn volume from a snapshot (taken only
// while faults are armed).
//
// One class serves two descriptions:
//   Sharded3D  one volume across the fleet (execute), or a batch sharded
//              volume by volume (execute_batch) or dealt (deal_batch) —
//              the FFT service prices the two;
//   OutOfCore  the paper's single-card plan. On a bare-device registry
//              the plan owns a one-member DeviceGroup that borrows the
//              caller's Device (sim/device_group.h); on a group registry
//              every entry point deals.
// Every volume runs through one loop (run_pipelined): a lone volume is a
// batch of one, and a dealt volume is a batch of one restricted to the
// member it is dealt to, from that member's clock, so volumes on
// different cards overlap; each member stages through its own host
// buffer.
//
// The same schedule serves r2c/c2r cubes over the split half-spectrum
// layout (real3d.h): a PlaneCodec describes a Z-plane as row regions —
// one n-wide region for Complex, an (n/2)-wide main span plus its 1-wide
// Nyquist tail for RealHalfSpectrum — and every transfer, kernel, peer
// leg and energy sum loops over them, so the exchange moves ~half the
// complex bytes. Forward phase 1 runs the real slab plan; the inverse
// runs only the coarse Y/local-Z ranks in phase 1 and ends phase 2 with
// the fused c2r kernel (a true inverse). Real plans stay slab.
//
// Schedule decisions (slab vs pencil, the pipelined issue order, deal vs
// shard) are priced by running this plan's own enqueue code on the
// group's timing twin (DeviceGroup::timing_twin): the event scheduler is
// the only timing model.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gpufft/fft_plan.h"
#include "gpufft/outofcore.h"
#include "gpufft/types.h"
#include "sim/device_group.h"

namespace repro::gpufft {

/// How the Z-decimated volume is split across members for phase 2.
enum class Decomposition {
  /// Each member owns a contiguous block of whole plane groups (the PR 3
  /// scheme). Member count saturates at min(shards, n/shards).
  Slab,
  /// Each member owns one (plane group, Y block) unit: nm = local_nz *
  /// y_blocks members, each running the phase-2 pencil FFT over an
  /// (n, n/y_blocks, shards) sub-slab. Peer fabrics only — the finer
  /// units would multiply host-staged traffic, but direct legs pay only
  /// wire time. Scales to N = 64 and beyond.
  Pencil,
};

/// How the all-to-all between the phases physically moves.
enum class Exchange {
  HostStaged,  ///< through the host work volume (the only tree option)
  Peer,        ///< DeviceGroup::d2d_async legs over the fabric
};

/// The geometry one sharded run actually uses: resolved from the
/// topology, the preferred decomposition, and the alive member set.
struct ShardLayout {
  Decomposition decomp{Decomposition::Slab};
  Exchange exchange{Exchange::HostStaged};
  std::size_t members{1};         ///< phase-2 workers (prefix of alive)
  std::size_t phase1_members{1};  ///< phase-1 residue owners
  std::size_t y_blocks{1};        ///< pencil: Y splits per plane group
};

/// Resolve the layout `devices` cards would use on `topo` (all assumed
/// alive) for the preferred decomposition; falls back to Slab (and to
/// HostStaged) when the preference is infeasible. The plans apply the
/// same rules against the live group.
ShardLayout shard_layout(const sim::Topology& topo, std::size_t n,
                         std::size_t shards, std::size_t devices,
                         Decomposition preferred);

/// Per-device timing buckets of one sharded run (duration sums, schedule
/// independent; the exchange is the d2h1 + h2d2 legs — for peer
/// exchanges, a leg's send side lands in d2h1 and its receive side in
/// h2d2, so the buckets keep their meaning across topologies).
struct ShardTiming {
  double h2d1_ms{}, fft1_ms{}, twiddle_ms{}, d2h1_ms{};
  double h2d2_ms{}, fft2_ms{}, d2h2_ms{};
  std::uint64_t exchange_bytes{};  ///< bytes through the host staging

  [[nodiscard]] double busy_ms() const {
    return h2d1_ms + fft1_ms + twiddle_ms + d2h1_ms + h2d2_ms + fft2_ms +
           d2h2_ms;
  }
  [[nodiscard]] double exchange_ms() const { return d2h1_ms + h2d2_ms; }
  [[nodiscard]] double compute_ms() const {
    return fft1_ms + twiddle_ms + fft2_ms;
  }
};

/// Group-level timing of one sharded run.
struct ShardedTiming {
  std::vector<ShardTiming> devices;  ///< one entry per group member
  double barrier_ms{};   ///< phase-1 -> phase-2 fence (max stream tail)
  double makespan_ms{};  ///< overlapped wall-clock across the fleet

  [[nodiscard]] std::uint64_t exchange_bytes() const {
    std::uint64_t b = 0;
    for (const auto& d : devices) b += d.exchange_bytes;
    return b;
  }
  [[nodiscard]] double max_busy_ms() const {
    double ms = 0.0;
    for (const auto& d : devices) ms = std::max(ms, d.busy_ms());
    return ms;
  }
  /// Fraction of the fleet's busy time spent on the all-to-all legs.
  [[nodiscard]] double exchange_fraction() const {
    double busy = 0.0;
    double exch = 0.0;
    for (const auto& d : devices) {
      busy += d.busy_ms();
      exch += d.exchange_ms();
    }
    return busy > 0.0 ? exch / busy : 0.0;
  }
};

/// Timing of one batched sharded run.
struct ShardedBatchTiming {
  ShardedTiming total;  ///< per-device buckets summed across volumes
  std::vector<double> volume_done_ms;  ///< completion offsets from batch start
  /// Dealt batches only: the group ordinal that ran each volume.
  std::vector<std::size_t> volume_member;
  double makespan_ms{};                ///< batch wall-clock across the fleet

  [[nodiscard]] double volumes_per_sec() const {
    return makespan_ms > 0.0
               ? 1e3 * static_cast<double>(volume_done_ms.size()) /
                     makespan_ms
               : 0.0;
  }
  /// Fraction of (active devices x makespan) the all-to-all legs kept DMA
  /// engines busy. "Active" = devices with nonzero buckets, so a failover
  /// mid-batch does not dilute the figure with lost cards' zero rows.
  [[nodiscard]] double exchange_occupancy() const;
  /// Same denominator, numerator = kernel time (fft1 + twiddle + fft2).
  [[nodiscard]] double compute_occupancy() const;
};
/// Volume contexts the pipelined batch keeps in flight (slab leases,
/// streams, and host staging rotate over min(batch, this many) slots).
/// Volume k's host-staged all-to-all and phase 2 overlap volume k+1's
/// phase 1, and the only inter-volume fences are the per-slot WAR fences.
/// Two is the minimum for any cross-volume overlap, but the context count
/// also bounds the phase-1 lookahead: with L volumes' phase 1 issued ahead
/// of the oldest pending phase 2, L+1 staging slots are live at once.
/// Four slots let a batch of four issue every phase 1 before the first
/// exchange — on dual-DMA cards that is the order pricing picks at
/// exchange-heavy sizes, and fewer slots re-serialize the pipe: with
/// two, volume k's phase-1 WAR fence waits for volume k-2's entire
/// phase 2 from the third volume on.
inline constexpr std::size_t kPipelineContexts = 4;

/// A Z-plane's memory layout as data: a list of row regions, each `n`
/// rows (the Y extent) of its own X width — {n} for Complex, {n/2, 1}
/// (main span, Nyquist tail) for the split half-spectrum layout. Any
/// buffer holding k planes stores the region blocks back to back: all k
/// planes of region 0, then all k planes of region 1.
struct PlaneCodec {
  std::size_t n{};
  std::vector<std::size_t> widths;

  /// Elements of region `r` in one plane.
  [[nodiscard]] std::size_t size(std::size_t r) const {
    return widths[r] * n;
  }
  /// Elements of one whole plane.
  [[nodiscard]] std::size_t plane() const { return base(widths.size(), 1); }
  /// Offset of region `r`'s block in a buffer of `k` planes.
  [[nodiscard]] std::size_t base(std::size_t r, std::size_t k) const {
    std::size_t off = 0;
    for (std::size_t q = 0; q < r; ++q) off += k * size(q);
    return off;
  }
  /// Offset of region `r` of plane `j` in a buffer of `k` planes.
  [[nodiscard]] std::size_t at(std::size_t r, std::size_t k,
                               std::size_t j) const {
    return base(r, k) + j * size(r);
  }
};

/// `shards` is the Z-decimation factor S (the out-of-core `splits`,
/// decoupled from the device count so results are bit-identical for every
/// N); each device owns shards/N residues in phase 1 and a contiguous
/// (n/shards)/N block of plane groups in phase 2. As an FftPlan it
/// supports the host entry points only — the volume is never resident on
/// any single card. Obtain through a PlanRegistry:
///
///   sim::DeviceGroup group(4, sim::geforce_8800_gts());
///   auto plan = gpufft::PlanRegistry::of(group).get_or_create(
///       gpufft::PlanDesc::sharded3d(256, 8, gpufft::Direction::Forward));
///   plan->execute_host(volume);
///
///   auto one_card = gpufft::PlanRegistry::of(dev).get_or_create(
///       gpufft::PlanDesc::out_of_core(512, 8, gpufft::Direction::Forward));
///
/// PlanDesc::sharded_real3d builds the same class over the half-spectrum
/// layout (see the file comment).
class ShardedFft3DPlan final : public PlanBaseT<float> {
 public:
  /// Requires a Sharded3D or OutOfCore cube description:
  /// splits | n, splits a supported power-of-two small-FFT factor;
  /// RealHalfSpectrum layouts also need a power-of-two n >= 32 (the real
  /// X fine pass). A non-zero tune.slab_depth overrides `splits` (the
  /// TuneConfig knob). Any group size works: when it divides neither
  /// `splits` nor `n/splits`, a sharded run uses the largest member
  /// prefix that divides both. OutOfCore plans deal: execute() runs the
  /// volume whole on the first schedulable member.
  ShardedFft3DPlan(sim::DeviceGroup& group, const PlanDesc& desc);
  /// Complex-layout convenience: PlanDesc::sharded3d(n, shards, dir) with
  /// `tune`.
  ShardedFft3DPlan(sim::DeviceGroup& group, std::size_t n,
                   std::size_t shards, Direction dir, TuneConfig tune = {});
  /// A plan on one bare card (the OutOfCore kind): the plan owns a
  /// one-member group borrowing `dev`, which must outlive the plan.
  ShardedFft3DPlan(Device& dev, const PlanDesc& desc);

  ShardedTiming execute(std::span<cxf> host_data);
  /// Re-expose the device-resident entry point the span overload hides.
  using FftPlanT<float>::execute;

  /// Unsupported: the volume is distributed, never on one card.
  std::vector<StepTiming> execute_impl(DeviceBuffer<cxf>& data) override;

  /// The FftPlan host entry point (phase rows summed across devices).
  /// last_total_ms() afterwards reports the fleet makespan.
  std::vector<StepTiming> execute_host(std::span<cxf> data) override;

  /// Many volumes through the fleet, bit-identical to one execute() per
  /// volume. Unverified batches overlap volume k's exchange + phase 2 with
  /// volume k+1's phase 1, in the priced issue order (priced_issue_order;
  /// a batch of one is exactly execute()). When the exec policy verifies,
  /// the volumes run one at a time through execute(), each with its own
  /// snapshot/recompute loop. Survives DeviceLost mid-batch: completed
  /// volumes keep their results, the failing volume re-runs on the
  /// survivors, and the rest of the batch continues on the reduced fleet.
  ShardedBatchTiming execute_batch(std::span<const std::span<cxf>> volumes);

  /// Deal whole volumes round-robin over the schedulable members: each
  /// volume is a batch of one restricted to its member, verified against
  /// that member, with no exchange and no group-wide barrier. Volumes
  /// dealt to different cards overlap; volumes on one card run back to
  /// back. Any group size works. Survives DeviceLost mid-batch: the
  /// failing volume restores from its snapshot (taken only while faults
  /// are armed) and re-deals to the next survivor in rotation; completed
  /// volumes keep their results. execute_batch of a dealt kind is this
  /// call.
  ShardedBatchTiming deal_batch(std::span<const std::span<cxf>> volumes);

  /// FftPlan batch entry point: runs execute_batch (dealt for OutOfCore);
  /// the rows are duration sums across volumes and last_total_ms() is the
  /// overlapped batch makespan.
  std::vector<StepTiming> execute_batch_host(
      std::span<const std::span<cxf>> volumes) override;

  [[nodiscard]] sim::DeviceGroup& group() const { return *group_; }
  [[nodiscard]] std::size_t n() const { return n_; }
  [[nodiscard]] std::size_t shards() const { return shards_; }

  /// The decomposition the next run will prefer. The constructor seeds
  /// it from choose_decomposition (planner.h), except on a timing twin,
  /// where plans never price; the setter exists for A/B studies, tests
  /// and pricing. Half-spectrum plans accept Slab only.
  [[nodiscard]] Decomposition decomposition() const { return decomp_; }
  void set_decomposition(Decomposition d);

  /// Geometry the last execute()/execute_host() actually ran with.
  [[nodiscard]] const ShardLayout& last_layout() const {
    return last_layout_;
  }

  /// Breakdown of the last execute()/execute_host().
  [[nodiscard]] const ShardedTiming& last_timing() const {
    return last_timing_;
  }

 private:
  /// The per-volume execution context: one pair of slab leases + streams
  /// per member. The volume loop rotates over min(batch,
  /// kPipelineContexts) of these, so consecutive volumes overlap without
  /// the WAR reuse fence binding.
  struct VolumeCtx;

  /// Owns a borrowed-device group (see the Device& constructor).
  ShardedFft3DPlan(std::unique_ptr<sim::DeviceGroup> own,
                   const PlanDesc& desc);

  friend double priced_sharded_ms(sim::DeviceGroup&, const PlanDesc&,
                                  Decomposition, std::size_t,
                                  const ExecPolicy&, std::size_t);
  friend struct ShardedPlanTestAccess;

  [[nodiscard]] std::unique_ptr<VolumeCtx> make_ctx(
      const std::vector<std::size_t>& members, const ShardLayout& layout);

  /// Enqueue one volume's two phases on `ctx`'s streams without draining
  /// them; buckets accumulate into `timing` (indexed by group ordinal)
  /// and `vol_start_ms` anchors the barrier bookkeeping. Split so the
  /// pipelined batch can issue volume k+1's phase 1 *before* volume k's
  /// phase 2: the engine
  /// FIFOs dispatch in submission order, so whole-volume issue order
  /// would head-of-line block the next volume's uploads behind this
  /// volume's barrier-gated exchange. Phase 1 only reads `host_data` and
  /// writes `host_work`; phase 2 (which opens with the phase fence)
  /// reads `host_work` and overwrites `host_data`.
  void enqueue_phase1(VolumeCtx& ctx, std::span<cxf> host_data,
                      std::span<cxf> host_work, ShardedTiming& timing);
  void enqueue_phase2(VolumeCtx& ctx, std::span<cxf> host_data,
                      std::span<cxf> host_work, double vol_start_ms,
                      ShardedTiming& timing);

  /// The plan's one volume loop: `volumes` with `lookahead` volumes of
  /// phase 1 issued ahead of the oldest pending phase 2 (< min(batch,
  /// kPipelineContexts)), drained, and — when the exec policy verifies a
  /// lone volume whose phase 1 spans several members — checked region by
  /// region. A DeviceLost re-shards over the survivors: a phase-1 loss
  /// re-runs phase 1; a phase-2 loss restores the volume and re-runs phase
  /// 2 from host staging when the run and the survivors are both
  /// host-staged, and both phases otherwise. A `dealt` run is
  /// restricted to that member: its clock, its drain, its host buffer, and
  /// no re-shard (a DeviceLost goes up to deal_batch's re-deal).
  ShardedBatchTiming run_pipelined(
      std::span<const std::span<cxf>> volumes, std::size_t lookahead,
      std::optional<std::size_t> dealt = std::nullopt);

  /// The seven phase rows of `t`'s buckets summed across the fleet, for
  /// `volumes` volumes (each phase moves every volume once each way).
  std::vector<StepTiming> phase_rows(const ShardedTiming& t,
                                     std::size_t volumes);

  /// Declared first, destroyed last: everything below may refer to it.
  std::unique_ptr<sim::DeviceGroup> own_group_;
  sim::DeviceGroup* group_;
  /// OutOfCore on a group: every entry point deals.
  bool dealt_;
  TuneConfig opt_;
  std::size_t n_;
  std::size_t shards_;
  PlaneCodec codec_;
  /// Half-spectrum inverse: phase 1 runs coarse ranks only and phase 2
  /// ends with the fused c2r pass.
  bool c2r_;
  Decomposition decomp_{Decomposition::Slab};
  ShardLayout last_layout_{};
  Shape3 slab_shape_;  ///< logical slab (n, n, n/shards)
  /// Phase-1 slab plan per device (null for lost members and for c2r).
  std::vector<std::shared_ptr<FftPlan>> slab_plans_;
  /// c2r only: per-device tables of the fused pass (n/2 stages, n pack).
  std::vector<std::shared_ptr<const DeviceBuffer<cxf>>> tw_half_;
  std::vector<std::shared_ptr<const DeviceBuffer<cxf>>> tw_full_;
  /// Sharded runs' exchange volume (dealt kinds leave it empty).
  sim::LazyZeroVector<cxf> host_work_;
  sim::DeviceGroup::HostStagingLease staging_lease_;
  /// Dealt runs' host staging, one volume per group ordinal, grown on a
  /// member's first dealt volume.
  std::vector<sim::LazyZeroVector<cxf>> dealt_work_;
  /// Extra staging volumes for the pipelined batch (slots 1..N-1 of the
  /// rotation; slot 0 is host_work_), so a volume's phase-1 downloads
  /// never land in a buffer an earlier volume's phase 2 is still reading.
  /// Each is grown on the first host-staged batch whose rotation uses it.
  std::array<sim::LazyZeroVector<cxf>, kPipelineContexts - 1>
      host_work_extra_;
  std::array<sim::DeviceGroup::HostStagingLease, kPipelineContexts - 1>
      staging_lease_extra_;
  ShardedTiming last_timing_{};
};

/// Makespan of `batch` volumes of `desc` through ShardedFft3DPlan on
/// `group`'s schedulable members with decomposition `d`, priced by running
/// the plan's own schedule on group.timing_twin() from an idle fleet, and
/// cached in the group. The schedule is the one execute_batch runs: one
/// execute() per volume when `policy` verifies, otherwise the volume loop
/// with `lookahead` volumes of phase 1 ahead of the oldest pending
/// exchange (a batch of one at lookahead 0 is exactly execute()).
double priced_sharded_ms(sim::DeviceGroup& group, const PlanDesc& desc,
                         Decomposition d, std::size_t batch,
                         const ExecPolicy& policy = {},
                         std::size_t lookahead = 0);

/// The issue order execute_batch runs for `batch` volumes: the candidate
/// lookahead (below min(batch, kPipelineContexts); only 0 when `policy`
/// verifies, which runs one execute() per volume) with the smallest
/// priced makespan, the first on ties.
struct IssueOrder {
  std::size_t lookahead{};
  double ms{};  ///< its priced makespan
};
IssueOrder priced_issue_order(sim::DeviceGroup& group, const PlanDesc& desc,
                              Decomposition d, std::size_t batch,
                              const ExecPolicy& policy = {});

/// Makespan of `run` on `group`'s timing twin, the pricing primitive
/// behind the functions above: `run` gets PlanRegistry::of(twin)'s plan
/// for `desc` (carrying `policy`) and `batch` host volumes, all views of
/// one zero buffer that dry transfers never write, after the twin's
/// clocks reset. Cached in the group under `schedule` plus `desc`,
/// `policy.verify`, `batch` and the live schedulable member set.
double dry_run_ms(
    sim::DeviceGroup& group, const PlanDesc& desc, const ExecPolicy& policy,
    std::size_t batch, const std::string& schedule,
    const std::function<void(FftPlan&, std::span<const std::span<cxf>>)>&
        run);

}  // namespace repro::gpufft
