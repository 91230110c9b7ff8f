// Transparent timing decorator around a serve::SocExecutor.
//
// The fleet router calls this instead of the executor; every call is
// forwarded unchanged and its result returned unchanged, so the served
// outcomes are identical to an undecorated run (tests/perfbench_test.cpp
// checks this). Around each call it takes host time, the backing Soc's
// counter deltas and, when tracing, a serve.exec / serve.restart span.
#pragma once

#include <cstdint>
#include <vector>

#include "serve/soc_executor.h"
#include "tracer.h"
#include "workloads.h"

namespace perfbench {

/// What the decorators of one fleet observed, summed over shards.
struct ExecStats {
  std::uint64_t calls = 0;        ///< execute + execute_batch calls
  std::uint64_t batch_calls = 0;  ///< execute_batch calls
  std::uint64_t not_ok = 0;       ///< outcomes the oracle rejected (ok == false)
  std::vector<double> call_ms;    ///< host time per call
  LayerCounters counters;         ///< Soc counter deltas across calls
};

class TimedExecutor final : public mco::serve::Executor {
 public:
  TimedExecutor(mco::serve::SocExecutor& inner, Tracer& tracer, ExecStats& stats)
      : inner_(inner), tracer_(tracer), stats_(stats) {}

  mco::serve::ExecutionOutcome execute(const mco::serve::ServeJob& job, unsigned m,
                                       bool probe) override;
  mco::serve::BatchExecutionOutcome execute_batch(const std::vector<mco::serve::ServeJob>& jobs,
                                                  unsigned m) override;
  void restart() override;
  void set_fault(const mco::fault::FaultConfig& cfg) override;

 private:
  struct Before {
    LayerCounters counters;
    std::uint64_t rebuilds = 0;
    double t = 0.0;
  };
  Before before();
  void after(const Before& b);

  mco::serve::SocExecutor& inner_;
  Tracer& tracer_;
  ExecStats& stats_;
};

}  // namespace perfbench
