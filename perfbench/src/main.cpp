// perfbench: one workload, one process, one result line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// The run first replays the workload once at the pinned seed and compares
// its architectural digest with the pinned values (the correctness gate),
// then repeats seed-offset rounds until --seconds have passed. Untraced
// runs print the end-to-end metrics; --trace 1 alternates untraced and
// traced rounds, prints per-layer host time and counts from the traced
// ones, and writes their spans as Chrome trace-event JSON. The last stdout
// line is {"correct", "attempted", "failed", "metrics"}; the exit code is 1
// when any check failed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kPaperSweep;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out = "perfbench-trace.json";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<paper_sweep|offload_churn|fleet_soak|fleet_faulty> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      const auto w = parse_workload(val);
      if (!w) usage("unknown workload '" + val + "'");
      a.workload = *w;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (val.empty() || *end != '\0') usage("bad --seed '" + val + "'");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (val.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 600.0) {
        usage("bad --seconds '" + val + "'");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("bad --trace '" + val + "'");
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage("unknown option " + key);
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (p in (0, 1]).
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/// The process's resident-set high-water mark (VmHWM). Unlike ru_maxrss it
/// restarts at exec, so a parent's pre-exec footprint is not counted.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

/// Rounds, latency samples and spans one run keeps at most.
constexpr std::size_t kMaxRounds = 1 << 14;
constexpr std::size_t kMaxSamples = 1 << 20;
constexpr std::size_t kMaxSpans = 1 << 20;

/// What an untraced round contributes to the end-to-end metrics.
struct RoundTimes {
  double setup_s;
  double loop_s;
  std::uint64_t offloads;
  std::uint64_t jobs;
  std::uint64_t sim_cycles;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Per-layer metrics of one traced round (percentiles are filled in later
/// from all traced rounds).
std::vector<Metric> layer_metrics(Workload w, const RoundStats& s,
                                  const std::vector<NameTime>& times) {
  std::map<std::string, NameTime> t;
  for (const NameTime& nt : times) t[nt.name] = nt;
  const auto total = [&](const char* n) { return t.count(n) ? t[n].total_s : 0.0; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const LayerCounters& c = s.counters;
  // Host time per simulated event: offload.run on the offload workloads;
  // on fleets the executor call is the innermost visible boundary.
  const double engine_s = is_fleet(w) ? total("serve.exec") : total("offload.run");
  return {
      {"soc.setup_s", total("soc.setup"), "s"},
      {"soc.teardown_s", total("soc.teardown"), "s"},
      {"soc.builds", d(s.soc_builds), "count"},
      {"soc.rebuilds", d(s.soc_rebuilds), "count"},
      {"soc.prepare_s", total("soc.prepare"), "s"},
      {"soc.verify_s", total("soc.verify"), "s"},
      {"offload.run_s", total("offload.run"), "s"},
      {"offload.runs", t.count("offload.run") ? d(t["offload.run"].count) : 0.0, "count"},
      {"offload.run_p50_us", 0.0, "us"},
      {"offload.run_p99_us", 0.0, "us"},
      {"sim.events", d(c.sim_events), "count"},
      {"sim.cycles", d(c.sim_cycles), "cycles"},
      {"sim.ns_per_event", 1e9 * ratio(engine_s, d(c.sim_events)), "ns"},
      {"sim.events_per_cycle", ratio(d(c.sim_events), d(c.sim_cycles)), "ratio"},
      {"mem.hbm_beats", d(c.hbm_beats), "count"},
      {"mem.hbm_transfers", d(c.hbm_transfers), "count"},
      {"mem.hbm_busy_cycles", d(c.hbm_busy_cycles), "cycles"},
      {"mem.hbm_busy_per_event", ratio(d(c.hbm_busy_cycles), d(c.sim_events)), "ratio"},
      {"mem.dma_bytes", d(c.dma_bytes), "bytes"},
      {"noc.unicasts", d(c.noc_unicasts), "count"},
      {"noc.multicasts", d(c.noc_multicasts), "count"},
      {"host.polls", d(c.host_polls), "count"},
      {"host.irqs", d(c.host_irqs), "count"},
      {"host.busy_cycles", d(c.host_busy_cycles), "cycles"},
      {"cluster.worker_busy_cycles", d(c.worker_busy_cycles), "cycles"},
      {"serve.run_s", total("serve.run"), "s"},
      {"serve.exec_s", total("serve.exec"), "s"},
      {"serve.router_self_s", t.count("serve.run") ? t["serve.run"].self_s : 0.0, "s"},
      {"serve.exec_calls", d(s.exec_calls), "count"},
      {"serve.batch_calls", d(s.batch_calls), "count"},
      {"serve.exec_call_p50_us", 0.0, "us"},
      {"serve.exec_call_p99_us", 0.0, "us"},
      {"serve.exec_calls_per_job", is_fleet(w) ? ratio(d(s.exec_calls), d(s.jobs)) : 0.0,
       "ratio"},
      {"serve.steals", d(s.steals), "count"},
      {"serve.batched_jobs", d(s.batched_jobs), "count"},
      {"serve.restart_s", total("serve.restart"), "s"},
      {"check.violations", d(s.violations), "count"},
      {"serve.failover_redispatches", d(s.failover_redispatches), "count"},
      {"serve.corruptions_detected", d(s.corruptions_detected), "count"},
      {"serve.integrity_retries", d(s.integrity_retries), "count"},
      {"serve.audits", d(s.audits), "count"},
      {"serve.escapes", d(s.escapes), "count"},
      {"trace.overhead_s", 0.0, "s"},
      {"trace.unattributed_s", t.count("workload") ? t["workload"].self_s : 0.0, "s"},
  };
}

/// Durations (µs) of every span called `name`.
std::vector<double> span_us(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) out.push_back(s.duration() * 1e6);
  }
  return out;
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int run(const Args& args) {
  const Workload w = args.workload;
  const char* name = workload_name(w);
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  // Latency samples go into a buffer reserved before anything is simulated
  // (and rounds keep only a few scalars), so the benchmark's own bookkeeping
  // does not grow the heap between rounds. Growing it interleaves long-lived
  // blocks with the simulator's short-lived ones and, after a few hundred
  // offload_churn rounds, changes how the allocator trims and re-faults
  // memory: a several-fold jump in page faults that is not the program's.
  std::vector<double> op_ms;
  op_ms.reserve(kMaxSamples);

  // Gate: the pinned seed's architectural digest. Untraced, outside timing.
  Tracer quiet;
  const RoundStats gate = run_round(w, kPinnedSeed, quiet);
  attempted += gate.attempted;
  failures.insert(failures.end(), gate.failures.begin(), gate.failures.end());
  for (std::string& f : compare_digest(w, gate.digest, pinned_digest(w))) {
    failures.push_back(std::move(f));
  }
  std::printf("[%s] gate seed=%llu %s\n", name, static_cast<unsigned long long>(kPinnedSeed),
              gate.digest.describe().c_str());
  // The gate replays the whole workload, so its high-water mark is the
  // program's footprint, read before the run's sample buffer fills.
  const double rss_after_gate = peak_rss_mb();
  if (args.trace) {
    // Tracing must not change what is simulated.
    Tracer probe;
    probe.set_enabled(true);
    const RoundStats traced_gate = run_round(w, kPinnedSeed, probe);
    attempted += traced_gate.attempted;
    for (std::string& f : compare_digest(w, traced_gate.digest, gate.digest)) {
      failures.push_back("traced run differs: " + f);
    }
  }

  // Timed rounds. With --trace 1, odd rounds are traced, even ones not.
  // Traced rounds keep only their per-layer values, in a reserved buffer.
  Tracer tracer;
  std::vector<RoundTimes> plain;
  std::vector<RoundTimes> traced;
  std::vector<double> layer_values;
  plain.reserve(kMaxRounds);
  if (args.trace) {
    traced.reserve(kMaxRounds);
    layer_values.reserve(kMaxRounds / 2 * layer_metrics(w, RoundStats{}, {}).size());
    tracer.reserve(kMaxSpans);
  }
  const std::size_t min_rounds = args.trace ? 6 : 5;
  const double t_start = now_s();
  for (std::size_t r = 0; r < kMaxRounds; ++r) {
    const bool on = args.trace && r % 2 == 1;
    tracer.set_enabled(on);
    const std::size_t first = tracer.spans().size();
    const RoundStats s = run_round(w, round_seed(args.seed, r), tracer);
    tracer.set_enabled(false);
    attempted += s.attempted;
    failures.insert(failures.end(), s.failures.begin(), s.failures.end());
    const RoundTimes t{s.setup_s, s.loop_s, s.offloads, s.jobs, s.counters.sim_cycles};
    if (on) {
      traced.push_back(t);
      for (const Metric& m : layer_metrics(w, s, time_by_name(tracer.spans(), first,
                                                               tracer.spans().size()))) {
        layer_values.push_back(m.value);
      }
    } else {
      if (op_ms.size() + s.offload_ms.size() > op_ms.capacity()) break;
      plain.push_back(t);
      op_ms.insert(op_ms.end(), s.offload_ms.begin(), s.offload_ms.end());
    }
    const double elapsed = now_s() - t_start;
    if ((elapsed >= args.seconds && r + 1 >= min_rounds) || elapsed >= 3.0 * args.seconds + 60.0 ||
        tracer.spans().size() > kMaxSpans / 2) {
      break;
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::vector<double> setup, cycles_rate, offload_rate, job_rate;
    for (const RoundTimes& t : plain) {
      setup.push_back(t.setup_s);
      cycles_rate.push_back(static_cast<double>(t.sim_cycles) / t.loop_s);
      offload_rate.push_back(static_cast<double>(t.offloads) / t.loop_s);
      job_rate.push_back(static_cast<double>(t.jobs) / t.loop_s);
    }
    metrics = {
        {"setup_s", median(setup), "s"},
        {"sim_cycles_per_s", median(cycles_rate), "cycles/s"},
        {"offloads_per_s", median(offload_rate), "1/s"},
        {"jobs_per_s", median(job_rate), "1/s"},
        {"offload_p50_ms", percentile(op_ms, 0.50), "ms"},
        {"offload_p99_ms", percentile(op_ms, 0.99), "ms"},
        {"peak_rss_mb", rss_after_gate, "MB"},
    };
    std::printf("[%s] %zu rounds (offloads_per_s q1 %.3f, q3 %.3f), %zu offload samples%s\n",
                name, plain.size(), percentile(offload_rate, 0.25),
                percentile(offload_rate, 0.75), op_ms.size(),
                op_ms.size() >= 1000 ? "" : " (fewer than 10 beyond p99)");
  } else {
    const std::vector<Span>& spans = tracer.spans();
    metrics = layer_metrics(w, RoundStats{}, {});
    for (std::size_t k = 0; k < metrics.size(); ++k) {
      std::vector<double> v;
      for (std::size_t i = k; i < layer_values.size(); i += metrics.size()) {
        v.push_back(layer_values[i]);
      }
      metrics[k].value = median(v);
    }
    std::vector<double> plain_loop, traced_loop;
    for (const RoundTimes& t : plain) plain_loop.push_back(t.loop_s);
    for (const RoundTimes& t : traced) traced_loop.push_back(t.loop_s);
    const double overhead = median(traced_loop) - median(plain_loop);
    const std::vector<double> run_us = span_us(spans, "offload.run");
    const std::vector<double> exec_us = span_us(spans, "serve.exec");
    for (Metric& m : metrics) {
      if (m.name == "offload.run_p50_us") m.value = percentile(run_us, 0.50);
      if (m.name == "offload.run_p99_us") m.value = percentile(run_us, 0.99);
      if (m.name == "serve.exec_call_p50_us") m.value = percentile(exec_us, 0.50);
      if (m.name == "serve.exec_call_p99_us") m.value = percentile(exec_us, 0.99);
      if (m.name == "trace.overhead_s") m.value = overhead;
    }

    const std::string fit = check_children_fit(spans);
    if (!fit.empty()) failures.push_back("span accounting: " + fit);

    // Per-layer self time over every traced round; the workload root's self
    // time is whatever no layer span covers.
    const std::vector<NameTime> all = time_by_name(spans, 0, spans.size());
    double wall = 0.0;
    for (const NameTime& nt : all) wall += nt.self_s;
    std::printf("[%s] per-layer host time over %zu traced rounds (%zu spans, wall %.6f s)\n",
                name, traced.size(), spans.size(), wall);
    std::printf("  %-22s %10s %12s %8s\n", "span", "count", "self_s", "share");
    std::vector<NameTime> rows = all;
    std::sort(rows.begin(), rows.end(),
              [](const NameTime& a, const NameTime& b) { return a.self_s > b.self_s; });
    for (const NameTime& nt : rows) {
      const bool root = nt.name == "workload";
      std::printf("  %-22s %10llu %12.6f %7.2f%%\n",
                  root ? "(unattributed)" : nt.name.c_str(),
                  static_cast<unsigned long long>(nt.count), nt.self_s,
                  100.0 * ratio(nt.self_s, wall));
    }
    std::printf("  tracing overhead: %.6f s per round (traced %.6f s - untraced %.6f s, %.2f%%)\n",
                overhead, median(traced_loop), median(plain_loop),
                100.0 * ratio(overhead, median(plain_loop)));

    std::ofstream out(args.trace_out);
    out << chrome_trace_json(spans);
    if (!out) failures.push_back("could not write " + args.trace_out);
    std::printf("[%s] spans written to %s\n", name, args.trace_out.c_str());
  }

  for (const Metric& m : metrics) {
    std::printf("[%s] %-28s %18.6f %s\n", name, m.name.c_str(), m.value, m.unit);
  }
  std::printf("[%s] error_rate %.6f (%zu failed / %llu attempted)\n", name,
              attempted ? static_cast<double>(failures.size()) / static_cast<double>(attempted)
                        : 0.0,
              failures.size(), static_cast<unsigned long long>(attempted));
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  std::printf("[%s] process: user %.3f s, sys %.3f s, %ld minor faults\n", name,
              secs(ru.ru_utime), secs(ru.ru_stime), ru.ru_minflt);
  for (std::size_t i = 0; i < failures.size() && i < 20; ++i) {
    std::printf("FAIL %s\n", failures[i].c_str());
  }
  const bool correct = failures.empty();
  print_json(correct, attempted, failures.size(), metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
