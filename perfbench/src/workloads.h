// The benchmark's four workloads, one round at a time.
//
// A round is a fixed amount of work: set-up (not timed as throughput), a
// timed loop, and for the fleets a teardown. main.cpp repeats rounds with
// seed-offset inputs until the run's time is spent and turns the per-round
// numbers into medians.
//
// Only the public API of the surviving modules is used: soc/soc.h,
// soc/workloads.h, serve/fleet.h, serve/fleet_soak.h, serve/soc_executor.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "serve/fleet.h"
#include "serve/fleet_soak.h"
#include "tracer.h"

namespace mco::soc {
class Soc;
}

namespace perfbench {

enum class Workload { kPaperSweep, kOffloadChurn, kFleetSoak, kFleetFaulty };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload w);
bool is_fleet(Workload w);

/// The seed whose architectural digest is pinned (the repo's default seed).
inline constexpr std::uint64_t kPinnedSeed = 42;
/// Jobs per fleet round: the E22 trace length.
inline constexpr std::size_t kFleetJobs = 600;

/// Seed of round `round` of a run started with `seed`; round 0 uses `seed`.
std::uint64_t round_seed(std::uint64_t seed, std::size_t round);

/// Simulated-architecture counters, read from public accessors. Values are
/// deltas over the calls they were taken around.
struct LayerCounters {
  std::uint64_t sim_events = 0;
  std::uint64_t sim_cycles = 0;
  std::uint64_t hbm_beats = 0;
  std::uint64_t hbm_transfers = 0;
  std::uint64_t hbm_busy_cycles = 0;
  std::uint64_t dma_bytes = 0;
  std::uint64_t noc_unicasts = 0;
  std::uint64_t noc_multicasts = 0;
  std::uint64_t host_polls = 0;
  std::uint64_t host_irqs = 0;
  std::uint64_t host_busy_cycles = 0;
  std::uint64_t worker_busy_cycles = 0;

  LayerCounters& operator+=(const LayerCounters& o);
  LayerCounters operator-(const LayerCounters& o) const;
};

/// Absolute counter values of one Soc.
LayerCounters read_counters(mco::soc::Soc& soc);

/// What a round computed, as simulated behaviour: pinned for kPinnedSeed.
/// Host time never enters it, and neither does the simulator's event count.
struct Digest {
  std::uint64_t hash = 0;        ///< FNV-1a over per-op cycles/phases or JobOutcomes
  std::uint64_t sim_cycles = 0;  ///< Σ simulated cycles of the round
  std::uint64_t hbm_beats = 0;   ///< Σ mem.hbm_beats
  // Fleet workloads: verdict counts and makespan.
  std::uint64_t met = 0;
  std::uint64_t missed = 0;
  std::uint64_t shed = 0;
  std::uint64_t failed = 0;
  std::uint64_t makespan = 0;
  // paper_sweep: the DAXPY N=1024, M=32 points behind the paper's 633/936/1.479x.
  std::uint64_t extended_1024_32 = 0;
  std::uint64_t baseline_1024_32 = 0;

  std::string describe() const;
};

/// The pinned digest of `w` at kPinnedSeed.
Digest pinned_digest(Workload w);

/// One line per field where `got` differs from `want` (empty = identical).
/// For paper_sweep it also re-derives the 1.479x speedup from the points.
std::vector<std::string> compare_digest(Workload w, const Digest& got, const Digest& want);

/// Everything one round measured.
struct RoundStats {
  double setup_s = 0.0;  ///< set-up before the timed loop
  double loop_s = 0.0;   ///< the timed loop
  std::uint64_t offloads = 0;  ///< offload ops, or executor calls on fleets
  std::uint64_t jobs = 0;      ///< verified offloads, or retired fleet jobs
  std::vector<double> offload_ms;  ///< host time per offload
  LayerCounters counters;
  std::uint64_t soc_builds = 0;
  std::uint64_t soc_rebuilds = 0;  ///< SocExecutor crashes + restarts
  // Serve layer (fleets).
  std::uint64_t exec_calls = 0;
  std::uint64_t batch_calls = 0;
  std::uint64_t steals = 0;
  std::uint64_t batched_jobs = 0;
  std::uint64_t failover_redispatches = 0;
  std::uint64_t corruptions_detected = 0;
  std::uint64_t integrity_retries = 0;
  std::uint64_t audits = 0;
  std::uint64_t escapes = 0;
  std::uint64_t violations = 0;
  // Correctness: operations checked and the checks that failed.
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;
  Digest digest;
};

/// Run one round of `w` on inputs made from `seed`. Spans go to `tracer`
/// when it is enabled.
RoundStats run_round(Workload w, std::uint64_t seed, Tracer& tracer);

/// A fleet round with its per-job outcomes (for the transparency test).
struct FleetRun {
  RoundStats stats;
  std::vector<mco::serve::JobOutcome> outcomes;
  mco::serve::FleetSoakResult row;  ///< the E22 report row of this run
};

/// Serve one seeded fleet trace of `num_jobs` jobs. With `decorate`, every
/// SocExecutor is wrapped in the timing decorator (the benchmark's path);
/// without it the router calls the executors directly.
FleetRun run_fleet(bool faulty, std::uint64_t seed, std::size_t num_jobs, Tracer& tracer,
                   bool decorate = true);

/// FNV-1a over every field of every outcome.
std::uint64_t hash_outcomes(const std::vector<mco::serve::JobOutcome>& outcomes);

}  // namespace perfbench
