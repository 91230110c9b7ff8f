#include "timed_executor.h"

namespace perfbench {

using mco::serve::BatchExecutionOutcome;
using mco::serve::ExecutionOutcome;
using mco::serve::ServeJob;

TimedExecutor::Before TimedExecutor::before() {
  return {read_counters(inner_.soc()), inner_.crashes() + inner_.restarts(), now_s()};
}

void TimedExecutor::after(const Before& b) {
  stats_.call_ms.push_back((now_s() - b.t) * 1e3);
  ++stats_.calls;
  // A crash inside the call rebuilt the Soc: its counters restart at zero,
  // so the fresh Soc's values are the whole delta that is still visible.
  if (inner_.crashes() + inner_.restarts() != b.rebuilds) {
    stats_.counters += read_counters(inner_.soc());
  } else {
    stats_.counters += read_counters(inner_.soc()) - b.counters;
  }
}

ExecutionOutcome TimedExecutor::execute(const ServeJob& job, unsigned m, bool probe) {
  const Before b = before();
  const std::int64_t span = tracer_.begin("serve.exec", job.id);
  ExecutionOutcome out = inner_.execute(job, m, probe);
  tracer_.end(span, tracer_.enabled() ? std::vector<std::uint64_t>{job.id}
                                      : std::vector<std::uint64_t>{});
  after(b);
  if (!out.ok) ++stats_.not_ok;
  return out;
}

BatchExecutionOutcome TimedExecutor::execute_batch(const std::vector<ServeJob>& jobs,
                                                   unsigned m) {
  const Before b = before();
  const std::int64_t span = tracer_.begin("serve.exec", jobs.empty() ? 0 : jobs.front().id);
  BatchExecutionOutcome out = inner_.execute_batch(jobs, m);
  std::vector<std::uint64_t> ids;
  if (tracer_.enabled()) {
    for (const ServeJob& j : jobs) ids.push_back(j.id);
  }
  tracer_.end(span, std::move(ids));
  after(b);
  ++stats_.batch_calls;
  for (const ExecutionOutcome& o : out.jobs) {
    if (!o.ok) ++stats_.not_ok;
  }
  return out;
}

void TimedExecutor::restart() {
  ScopedSpan span(tracer_, "serve.restart");
  inner_.restart();
}

void TimedExecutor::set_fault(const mco::fault::FaultConfig& cfg) { inner_.set_fault(cfg); }

}  // namespace perfbench
