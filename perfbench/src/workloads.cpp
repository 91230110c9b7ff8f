#include "workloads.h"

#include <cstdio>
#include <memory>

#include "serve/soc_executor.h"
#include "soc/soc.h"
#include "soc/workloads.h"
#include "timed_executor.h"

namespace perfbench {

namespace soc = mco::soc;
namespace serve = mco::serve;

namespace {

/// Max |measured − expected| accepted by the offload oracle.
constexpr double kTolerance = 1e-9;

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ull;
    }
  }
  void add(std::string_view s) {
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001B3ull;
    }
    add(s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

/// `f` with its one %llu replaced by `v`.
std::string fmt(const char* f, std::uint64_t v) {
  char buf[200];
  std::snprintf(buf, sizeof buf, f, static_cast<unsigned long long>(v));
  return buf;
}

// ---- offload workloads ----------------------------------------------------

struct OffloadPoint {
  const soc::SocConfig* cfg;
  const char* cfg_name;
  std::string kernel;
  std::uint64_t n;
  unsigned m;
};

/// Points refer to the configs by pointer, so a plan lives on the heap and
/// never moves.
struct OffloadPlan {
  soc::SocConfig baseline;
  soc::SocConfig extended;
  std::vector<OffloadPoint> points;
};

/// paper_sweep: the Fig. 1 grid, DAXPY N x M on both 32-cluster designs.
/// offload_churn: every registered kernel at a tiny size, M in {1,2,4,8},
/// each on a fresh 8-cluster extended Soc.
std::unique_ptr<OffloadPlan> make_plan(Workload w) {
  auto plan = std::make_unique<OffloadPlan>();
  if (w == Workload::kPaperSweep) {
    plan->baseline = soc::SocConfig::baseline(32);
    plan->extended = soc::SocConfig::extended(32);
    for (const auto& [cfg, name] : {std::pair{&plan->baseline, "baseline"},
                                    std::pair{&plan->extended, "extended"}}) {
      for (const std::uint64_t n : {1024u, 2048u, 4096u, 8192u, 16384u}) {
        for (const unsigned m : {1u, 2u, 4u, 8u, 16u, 32u}) {
          plan->points.push_back({cfg, name, "daxpy", n, m});
        }
      }
    }
  } else {
    plan->extended = soc::SocConfig::extended(8);
    for (const mco::kernels::Kernel* k : mco::kernels::KernelRegistry::shared().all()) {
      const std::string name = k->name();
      // Matrix kernels take n as a row count: 32 rows of 32 (GEMV) or 16 (GEMM) columns.
      const std::uint64_t n = (name == "gemv" || name == "gemm") ? 32 : 256;
      for (const unsigned m : {1u, 2u, 4u, 8u}) {
        plan->points.push_back({&plan->extended, "extended", name, n, m});
      }
    }
  }
  return plan;
}

/// One offload op: fresh Soc, prepare, offload, oracle, teardown.
void run_op(const OffloadPoint& p, mco::sim::Rng& rng, Tracer& tracer, std::uint64_t op,
            RoundStats& st, Fnv& hash) {
  const double t0 = now_s();
  std::unique_ptr<soc::Soc> s;
  {
    ScopedSpan span(tracer, "soc.setup", op);
    s = std::make_unique<soc::Soc>(*p.cfg);
  }
  soc::PreparedJob job;
  {
    ScopedSpan span(tracer, "soc.prepare", op);
    job = soc::prepare_workload(*s, s->kernels().by_name(p.kernel), p.n, s->num_clusters(), rng);
  }
  const LayerCounters before = read_counters(*s);
  mco::offload::OffloadResult res;
  {
    ScopedSpan span(tracer, "offload.run", op);
    res = s->run_offload(job.args, p.m);
  }
  const LayerCounters delta = read_counters(*s) - before;
  double err = 0.0;
  {
    ScopedSpan span(tracer, "soc.verify", op);
    err = job.max_abs_error(*s);
  }
  {
    ScopedSpan span(tracer, "soc.teardown", op);
    s.reset();
  }
  st.offload_ms.push_back((now_s() - t0) * 1e3);

  ++st.attempted;
  ++st.offloads;
  ++st.soc_builds;
  if (err <= kTolerance) {
    ++st.jobs;
  } else {
    char buf[200];
    std::snprintf(buf, sizeof buf, "oracle: %s %s n=%llu M=%u error %.3e > %.1e", p.cfg_name,
                  p.kernel.c_str(), static_cast<unsigned long long>(p.n), p.m, err, kTolerance);
    st.failures.emplace_back(buf);
  }
  st.counters += delta;

  const auto ph = res.phases();
  hash.add(std::string_view(p.cfg_name));
  hash.add(p.kernel);
  for (const std::uint64_t v : {p.n, static_cast<std::uint64_t>(p.m), res.total(), ph.marshal,
                                ph.sync_setup, ph.dispatch, ph.wait, ph.verify, ph.epilogue}) {
    hash.add(v);
  }
  st.digest.sim_cycles += res.total();
  st.digest.hbm_beats += delta.hbm_beats;
  if (p.kernel == "daxpy" && p.n == 1024 && p.m == 32) {
    (p.cfg->features.multicast ? st.digest.extended_1024_32 : st.digest.baseline_1024_32) =
        res.total();
  }
}

RoundStats run_offload_round(Workload w, std::uint64_t seed, Tracer& tracer) {
  RoundStats st;
  const std::int64_t root = tracer.begin("workload");
  const double t_setup = now_s();
  std::unique_ptr<OffloadPlan> plan;
  {
    ScopedSpan span(tracer, "setup");
    plan = make_plan(w);
    // Warm-up: one untraced op per round so lazy first-touch work (kernel
    // registry, allocator, page faults) lands in set-up, not in the loop.
    Tracer quiet;
    RoundStats warm;
    Fnv ignored;
    mco::sim::Rng warm_rng(seed ^ 0x5EEDull);
    run_op(plan->points.front(), warm_rng, quiet, 0, warm, ignored);
    st.failures = std::move(warm.failures);
    st.attempted += warm.attempted;
  }
  st.setup_s = now_s() - t_setup;

  mco::sim::Rng rng(seed);
  Fnv hash;
  const double t_loop = now_s();
  for (std::size_t i = 0; i < plan->points.size(); ++i) {
    run_op(plan->points[i], rng, tracer, i, st, hash);
  }
  st.loop_s = now_s() - t_loop;
  st.digest.hash = hash.value();
  tracer.end(root);
  return st;
}

}  // namespace

// ---- shared helpers ---------------------------------------------------------

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kPaperSweep, Workload::kOffloadChurn, Workload::kFleetSoak,
                           Workload::kFleetFaulty}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kPaperSweep: return "paper_sweep";
    case Workload::kOffloadChurn: return "offload_churn";
    case Workload::kFleetSoak: return "fleet_soak";
    case Workload::kFleetFaulty: return "fleet_faulty";
  }
  return "?";
}

bool is_fleet(Workload w) { return w == Workload::kFleetSoak || w == Workload::kFleetFaulty; }

std::uint64_t round_seed(std::uint64_t seed, std::size_t round) {
  return seed + static_cast<std::uint64_t>(round) * 0x9E3779B97F4A7C15ull;
}

LayerCounters& LayerCounters::operator+=(const LayerCounters& o) {
  sim_events += o.sim_events;
  sim_cycles += o.sim_cycles;
  hbm_beats += o.hbm_beats;
  hbm_transfers += o.hbm_transfers;
  hbm_busy_cycles += o.hbm_busy_cycles;
  dma_bytes += o.dma_bytes;
  noc_unicasts += o.noc_unicasts;
  noc_multicasts += o.noc_multicasts;
  host_polls += o.host_polls;
  host_irqs += o.host_irqs;
  host_busy_cycles += o.host_busy_cycles;
  worker_busy_cycles += o.worker_busy_cycles;
  return *this;
}

LayerCounters LayerCounters::operator-(const LayerCounters& o) const {
  LayerCounters d;
  d.sim_events = sim_events - o.sim_events;
  d.sim_cycles = sim_cycles - o.sim_cycles;
  d.hbm_beats = hbm_beats - o.hbm_beats;
  d.hbm_transfers = hbm_transfers - o.hbm_transfers;
  d.hbm_busy_cycles = hbm_busy_cycles - o.hbm_busy_cycles;
  d.dma_bytes = dma_bytes - o.dma_bytes;
  d.noc_unicasts = noc_unicasts - o.noc_unicasts;
  d.noc_multicasts = noc_multicasts - o.noc_multicasts;
  d.host_polls = host_polls - o.host_polls;
  d.host_irqs = host_irqs - o.host_irqs;
  d.host_busy_cycles = host_busy_cycles - o.host_busy_cycles;
  d.worker_busy_cycles = worker_busy_cycles - o.worker_busy_cycles;
  return d;
}

LayerCounters read_counters(soc::Soc& s) {
  LayerCounters c;
  c.sim_events = s.simulator().events_executed();
  c.sim_cycles = s.simulator().now();
  c.hbm_beats = s.hbm().beats_served();
  c.hbm_transfers = s.hbm().transfers_completed();
  c.hbm_busy_cycles = s.hbm().busy_cycles();
  c.noc_unicasts = s.interconnect().unicasts_sent();
  c.noc_multicasts = s.interconnect().multicasts_sent();
  c.host_polls = s.host().polls();
  c.host_irqs = s.host().irqs_taken();
  c.host_busy_cycles = s.host().busy_cycles();
  for (unsigned i = 0; i < s.num_clusters(); ++i) {
    mco::cluster::Cluster& cl = s.cluster(i);
    c.dma_bytes += cl.dma().bytes_moved();
    for (unsigned w = 0; w < cl.config().num_workers; ++w) {
      c.worker_busy_cycles += cl.worker(w).busy_cycles();
    }
  }
  return c;
}

std::uint64_t hash_outcomes(const std::vector<serve::JobOutcome>& outcomes) {
  Fnv h;
  for (const serve::JobOutcome& o : outcomes) {
    h.add(o.job_id);
    h.add(static_cast<std::uint64_t>(o.verdict));
    h.add(o.reason);
    h.add(o.m);
    h.add(o.clusters.size());
    for (const unsigned c : o.clusters) h.add(c);
    for (const std::uint64_t v :
         {o.arrival, o.start, o.end, o.queue_wait, static_cast<std::uint64_t>(o.slack),
          static_cast<std::uint64_t>(o.degraded), static_cast<std::uint64_t>(o.retries),
          static_cast<std::uint64_t>(o.watchdog_timeouts), static_cast<std::uint64_t>(o.failovers),
          static_cast<std::uint64_t>(o.integrity_retries)}) {
      h.add(v);
    }
  }
  return h.value();
}

// ---- fleet workloads --------------------------------------------------------

FleetRun run_fleet(bool faulty, std::uint64_t seed, std::size_t num_jobs, Tracer& tracer,
                   bool decorate) {
  constexpr unsigned kShards = 4;
  FleetRun fr;
  RoundStats& st = fr.stats;
  const std::int64_t root = tracer.begin("workload");

  // Set-up: trace generation, executor and router construction.
  const double t_setup = now_s();
  const std::int64_t setup = tracer.begin("setup");
  serve::FleetSoakConfig cfg;
  cfg.workload_seed = seed;
  serve::SoakTraceConfig tc = serve::fleet_trace_config(num_jobs);
  tc.seed = seed;
  const std::vector<serve::ServeJob> trace = serve::generate_trace(tc, cfg.model);

  ExecStats xs;
  std::vector<std::unique_ptr<serve::SocExecutor>> execs;
  std::vector<std::unique_ptr<TimedExecutor>> timed;
  std::vector<serve::Executor*> ptrs;
  for (unsigned s = 0; s < kShards; ++s) {
    serve::SocExecutorConfig xc;
    xc.soc = soc::SocConfig::extended(cfg.clusters_per_shard);
    xc.tolerance = cfg.tolerance;
    xc.workload_seed = cfg.workload_seed + s;
    xc.crash_penalty_cycles = cfg.crash_penalty_cycles;
    if (faulty) {
      // Attestation on every shard; shard 0's hot lane (cluster 0) flips
      // payload words (digest-detected) and serves stale reads (only the
      // audit can catch those).
      xc.soc.runtime.integrity.enabled = true;
      if (s == 0) {
        xc.soc.fault.target_cluster = 0;
        xc.soc.fault.payload_flip_prob = 0.01;
        xc.soc.fault.stale_read_prob = 0.02;
      }
    }
    {
      ScopedSpan span(tracer, "soc.setup", s);
      execs.push_back(std::make_unique<serve::SocExecutor>(xc));
    }
    if (decorate) {
      timed.push_back(std::make_unique<TimedExecutor>(*execs.back(), tracer, xs));
      ptrs.push_back(timed.back().get());
    } else {
      ptrs.push_back(execs.back().get());
    }
  }

  serve::FleetConfig fc;
  fc.num_shards = kShards;
  fc.clusters_per_shard = cfg.clusters_per_shard;
  fc.model = cfg.model;
  fc.max_queue = cfg.max_queue;
  fc.max_clusters_per_job = cfg.max_clusters_per_job;
  fc.health = cfg.health;
  if (faulty) {
    // Audits see only batch-of-one completions, and a stale read is
    // invisible to the digests, so every completion is single and audited:
    // otherwise a stale read could retire silently (an escape).
    fc.max_batch = 1;
    fc.integrity.audit_fraction = 1.0;
  }
  mco::sim::StatsRegistry stats;
  auto fleet = std::make_unique<serve::FleetRouter>(fc, ptrs);
  fleet->bind_stats(&stats);
  if (faulty) {
    // The E23 headline arc: shard 1 crash-stops a quarter into the episode
    // and heals 60k cycles later.
    const auto horizon = static_cast<mco::sim::Cycle>(200 * num_jobs);
    mco::fault::FleetFaultPlan plan(kShards);
    plan.add_crash(horizon / 4, 1);
    plan.add_heal(horizon / 4 + 60'000, 1);
    fleet->schedule_plan(plan);
  }
  mco::check::ProtocolMonitor monitor;
  monitor.attach(fleet->trace());
  tracer.end(setup);
  st.setup_s = now_s() - t_setup;

  // Timed loop: serve the trace.
  const double t_loop = now_s();
  {
    ScopedSpan span(tracer, "serve.run");
    fr.outcomes = fleet->run(trace);
  }
  st.loop_s = now_s() - t_loop;
  monitor.finish();

  serve::FleetSoakResult& r = fr.row;
  r.name = "4shard";
  r.shards = kShards;
  r.max_batch = fc.max_batch;
  r.stealing = fc.stealing;
  r.jobs = trace.size();
  for (std::size_t i = 0; i < fr.outcomes.size(); ++i) {
    switch (fr.outcomes[i].verdict) {
      case serve::JobVerdict::kMet:
        ++r.met;
        r.met_elements += trace[i].n;
        break;
      case serve::JobVerdict::kMissed: ++r.missed; break;
      case serve::JobVerdict::kShed: ++r.shed; break;
      case serve::JobVerdict::kFailed: ++r.failed; break;
    }
  }
  r.slo_attainment = r.jobs ? static_cast<double>(r.met) / static_cast<double>(r.jobs) : 0.0;
  r.makespan = fleet->makespan();
  r.goodput =
      r.makespan ? static_cast<double>(r.met_elements) / static_cast<double>(r.makespan) : 0.0;
  r.steals = fleet->steals();
  r.batches = fleet->batches();
  r.batched_jobs = fleet->batched_jobs();
  r.mean_batch =
      r.batches ? static_cast<double>(r.batched_jobs) / static_cast<double>(r.batches) : 0.0;
  for (unsigned s = 0; s < kShards; ++s) {
    r.quarantines += fleet->health(s).quarantines();
    r.crashes += execs[s]->crashes();
    r.soc_violations += execs[s]->total_violations();
    st.soc_rebuilds += execs[s]->crashes() + execs[s]->restarts();
  }
  r.serve_violations = monitor.total_violations();

  st.attempted = trace.size();
  st.jobs = r.met + r.missed + r.failed;
  st.offloads = xs.calls;
  st.offload_ms = std::move(xs.call_ms);
  st.counters = xs.counters;
  st.soc_builds = kShards + st.soc_rebuilds;
  st.exec_calls = xs.calls;
  st.batch_calls = xs.batch_calls;
  st.steals = r.steals;
  st.batched_jobs = r.batched_jobs;
  st.failover_redispatches = fleet->failover_redispatches();
  st.corruptions_detected = fleet->corruptions_detected();
  st.integrity_retries = fleet->integrity_retries();
  st.audits = fleet->audits();
  st.escapes = fleet->corruption_escapes();
  st.violations = r.soc_violations + r.serve_violations;

  if (st.violations != 0) {
    st.failures.push_back(fmt("monitor: %llu protocol violation(s)", st.violations));
  }
  if (st.escapes != 0) {
    st.failures.push_back(fmt("integrity: %llu corrupted result(s) escaped", st.escapes));
  }
  if (xs.not_ok != 0) {
    st.failures.push_back(fmt("oracle: %llu executor outcome(s) failed the max_abs_error check",
                              xs.not_ok));
  }

  Digest& d = st.digest;
  d.hash = hash_outcomes(fr.outcomes);
  d.sim_cycles = st.counters.sim_cycles;
  d.hbm_beats = st.counters.hbm_beats;
  d.met = r.met;
  d.missed = r.missed;
  d.shed = r.shed;
  d.failed = r.failed;
  d.makespan = r.makespan;

  {
    ScopedSpan span(tracer, "soc.teardown");
    fleet.reset();
    timed.clear();
    execs.clear();
  }
  tracer.end(root);
  return fr;
}

RoundStats run_round(Workload w, std::uint64_t seed, Tracer& tracer) {
  if (is_fleet(w)) return run_fleet(w == Workload::kFleetFaulty, seed, kFleetJobs, tracer).stats;
  return run_offload_round(w, seed, tracer);
}

// ---- digests ----------------------------------------------------------------

std::string Digest::describe() const {
  char buf[400];
  std::snprintf(buf, sizeof buf,
                "hash=0x%016llx sim_cycles=%llu hbm_beats=%llu met=%llu missed=%llu shed=%llu "
                "failed=%llu makespan=%llu extended_1024_32=%llu baseline_1024_32=%llu",
                static_cast<unsigned long long>(hash), static_cast<unsigned long long>(sim_cycles),
                static_cast<unsigned long long>(hbm_beats), static_cast<unsigned long long>(met),
                static_cast<unsigned long long>(missed), static_cast<unsigned long long>(shed),
                static_cast<unsigned long long>(failed), static_cast<unsigned long long>(makespan),
                static_cast<unsigned long long>(extended_1024_32),
                static_cast<unsigned long long>(baseline_1024_32));
  return buf;
}

Digest pinned_digest(Workload w) {
  // Captured at kPinnedSeed. paper_sweep's totals match E2's sweep footer
  // (161065 cycles over the 60 Fig. 1 points); fleet_soak's verdicts and
  // makespan are E22's 4shard row.
  Digest d;
  switch (w) {
    case Workload::kPaperSweep:
      d.hash = 0xea801a0fc3e97441ull;
      d.sim_cycles = 161065;
      d.hbm_beats = 1142784;
      d.extended_1024_32 = 633;
      d.baseline_1024_32 = 936;
      break;
    case Workload::kOffloadChurn:
      d.hash = 0x60faddccd0901c10ull;
      d.sim_cycles = 26812;
      d.hbm_beats = 36734;
      break;
    case Workload::kFleetSoak:
      d.hash = 0xc071b1314eb851c0ull;
      d.sim_cycles = 818172;
      d.hbm_beats = 3763200;
      d.met = 570;
      d.missed = 6;
      d.shed = 24;
      d.makespan = 120408;
      break;
    case Workload::kFleetFaulty:
      d.hash = 0x7e42dae23334dde6ull;
      d.sim_cycles = 837925;
      d.hbm_beats = 3723264;
      d.met = 473;
      d.missed = 90;
      d.shed = 37;
      d.makespan = 120460;
      break;
  }
  return d;
}

std::vector<std::string> compare_digest(Workload w, const Digest& got, const Digest& want) {
  std::vector<std::string> out;
  const auto field = [&](const char* name, std::uint64_t g, std::uint64_t e) {
    if (g != e) {
      char buf[200];
      std::snprintf(buf, sizeof buf, "digest %s: %s = %llu, pinned %llu", workload_name(w), name,
                    static_cast<unsigned long long>(g), static_cast<unsigned long long>(e));
      out.emplace_back(buf);
    }
  };
  field("hash", got.hash, want.hash);
  field("sim_cycles", got.sim_cycles, want.sim_cycles);
  field("hbm_beats", got.hbm_beats, want.hbm_beats);
  field("met", got.met, want.met);
  field("missed", got.missed, want.missed);
  field("shed", got.shed, want.shed);
  field("failed", got.failed, want.failed);
  field("makespan", got.makespan, want.makespan);
  field("extended_1024_32", got.extended_1024_32, want.extended_1024_32);
  field("baseline_1024_32", got.baseline_1024_32, want.baseline_1024_32);
  if (w == Workload::kPaperSweep) {
    // The paper's own numbers, re-derived from this round's points.
    field("extended N=1024 M=32 cycles (paper pin)", got.extended_1024_32, 633);
    field("baseline N=1024 M=32 cycles (paper pin)", got.baseline_1024_32, 936);
    char speedup[32];
    std::snprintf(speedup, sizeof speedup, "%.3f",
                  got.extended_1024_32 ? static_cast<double>(got.baseline_1024_32) /
                                             static_cast<double>(got.extended_1024_32)
                                       : 0.0);
    if (std::string_view(speedup) != "1.479") {
      out.push_back(std::string("digest paper_sweep: speedup at N=1024 M=32 is ") + speedup +
                    "x, paper pin 1.479x");
    }
  }
  return out;
}

}  // namespace perfbench
