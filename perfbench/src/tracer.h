// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only from the benchmark's own code, around calls into
// the simulator's public API (Soc construction, prepare_workload,
// run_offload, the oracle, FleetRouter::run and executor calls). Each span
// has a name, start and end (host seconds), a parent and an op id. When the
// tracer is disabled begin()/end() do nothing, so the untraced run pays
// only the branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on a monotonic clock (steady_clock, arbitrary epoch).
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  ///< static string: "workload", "soc.setup", ...
  double start_s = 0.0;
  double end_s = 0.0;
  std::int64_t parent = -1;  ///< index into the span list, -1 for a root
  std::uint64_t op = 0;      ///< op index, or the first job id of an executor call
  std::vector<std::uint64_t> jobs;  ///< job ids carried by a serve.exec span
  double duration() const { return end_s - start_s; }
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  /// Reserve room for `n` spans up front, so recording does not grow the
  /// heap while the workload runs.
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Open a span as a child of the innermost open span. Returns its id, or
  /// -1 when disabled. Spans must be closed in LIFO order.
  std::int64_t begin(const char* name, std::uint64_t op = 0);
  /// Close span `id` (no-op for -1).
  void end(std::int64_t id, std::vector<std::uint64_t> jobs = {});

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<std::int64_t> open_;
};

/// begin() on construction, end() on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, std::uint64_t op = 0)
      : tracer_(tracer), id_(tracer.begin(name, op)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  std::int64_t id_;
};

/// Per span name over spans[first, last): count, total duration and self
/// time (duration minus the part covered by direct children).
struct NameTime {
  std::string name;
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};
std::vector<NameTime> time_by_name(const std::vector<Span>& spans, std::size_t first,
                                   std::size_t last);

/// Accounting check: every span's direct children fit inside its duration
/// (Σ child durations <= duration, each child within [start, end]). Returns
/// an empty string when they do, else a description of the first offender.
std::string check_children_fit(const std::vector<Span>& spans);

/// Chrome trace-event JSON ("X" complete events, microseconds relative to
/// the first span), loadable in chrome://tracing or Perfetto.
std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace perfbench
