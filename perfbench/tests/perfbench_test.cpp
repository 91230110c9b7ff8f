// The benchmark's own tests: the timing decorator and the tracer must not
// change what is simulated, span accounting must add up, and the digest
// gate must catch a changed result.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "serve/fleet_soak.h"
#include "tracer.h"
#include "workloads.h"

namespace {

using namespace perfbench;
namespace serve = mco::serve;

const Workload kAll[] = {Workload::kPaperSweep, Workload::kOffloadChurn, Workload::kFleetSoak,
                         Workload::kFleetFaulty};

std::string fmt4(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

TEST(Transparency, DecoratedFleetSoakReproducesE22FourShardRow) {
  Tracer tracer;
  const FleetRun decorated = run_fleet(false, kPinnedSeed, 600, tracer, /*decorate=*/true);
  EXPECT_EQ(fmt4(decorated.row.slo_attainment), "0.9500");
  EXPECT_EQ(decorated.row.makespan, 120408u);
  EXPECT_TRUE(decorated.stats.failures.empty());

  // The same row through the library's own E22 runner, with no decorator.
  serve::FleetSoakConfig cfg;
  serve::SoakTraceConfig tc = serve::fleet_trace_config(600);
  const std::vector<serve::ServeJob> trace = serve::generate_trace(tc, cfg.model);
  serve::FleetSoakPoint point;
  for (const serve::FleetSoakPoint& p : serve::fleet_soak_grid()) {
    if (p.name == "4shard") point = p;
  }
  ASSERT_EQ(point.name, "4shard");
  const serve::FleetSoakResult reference = serve::run_fleet_point(point, trace, cfg);
  EXPECT_EQ(serve::fleet_report_json({decorated.row}, tc),
            serve::fleet_report_json({reference}, tc));

  // Per-job outcomes equal an undecorated run of the same fleet.
  const FleetRun bare = run_fleet(false, kPinnedSeed, 600, tracer, /*decorate=*/false);
  ASSERT_EQ(decorated.outcomes.size(), bare.outcomes.size());
  for (std::size_t i = 0; i < bare.outcomes.size(); ++i) {
    const serve::JobOutcome& a = decorated.outcomes[i];
    const serve::JobOutcome& b = bare.outcomes[i];
    EXPECT_EQ(a.job_id, b.job_id);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.clusters, b.clusters);
    EXPECT_EQ(a.start, b.start);
    EXPECT_EQ(a.end, b.end);
    EXPECT_EQ(a.slack, b.slack);
  }
  EXPECT_EQ(hash_outcomes(decorated.outcomes), hash_outcomes(bare.outcomes));
}

TEST(Transparency, FaultyFleetOutcomesDoNotDependOnTheDecorator) {
  Tracer tracer;
  const FleetRun decorated = run_fleet(true, kPinnedSeed, 600, tracer, true);
  const FleetRun bare = run_fleet(true, kPinnedSeed, 600, tracer, false);
  EXPECT_EQ(hash_outcomes(decorated.outcomes), hash_outcomes(bare.outcomes));
  EXPECT_GT(decorated.stats.failover_redispatches, 0u);
  EXPECT_GT(decorated.stats.corruptions_detected, 0u);
  EXPECT_EQ(decorated.stats.escapes, 0u);
}

TEST(Transparency, TracedAndUntracedRoundsHaveIdenticalDigests) {
  for (const Workload w : kAll) {
    Tracer off;
    Tracer on;
    on.set_enabled(true);
    const RoundStats plain = run_round(w, kPinnedSeed, off);
    const RoundStats traced = run_round(w, kPinnedSeed, on);
    EXPECT_TRUE(off.spans().empty());
    EXPECT_FALSE(on.spans().empty());
    EXPECT_TRUE(compare_digest(w, traced.digest, plain.digest).empty()) << workload_name(w);
  }
}

TEST(Gate, PinnedDigestsHoldAtThePinnedSeed) {
  for (const Workload w : kAll) {
    Tracer tracer;
    const RoundStats s = run_round(w, kPinnedSeed, tracer);
    EXPECT_TRUE(s.failures.empty()) << workload_name(w);
    const auto diff = compare_digest(w, s.digest, pinned_digest(w));
    EXPECT_TRUE(diff.empty()) << workload_name(w) << ": " << (diff.empty() ? "" : diff.front());
  }
}

TEST(Gate, ChangedResultsAreReported) {
  const Digest pinned = pinned_digest(Workload::kPaperSweep);
  EXPECT_TRUE(compare_digest(Workload::kPaperSweep, pinned, pinned).empty());
  Digest moved = pinned;
  moved.hash ^= 1;
  EXPECT_EQ(compare_digest(Workload::kPaperSweep, moved, pinned).size(), 1u);
  // A changed extended point breaks its pin and the paper's 633 and 1.479x.
  moved = pinned;
  moved.extended_1024_32 += 1;
  EXPECT_EQ(compare_digest(Workload::kPaperSweep, moved, pinned).size(), 3u);
  const Digest fleet = pinned_digest(Workload::kFleetSoak);
  moved = fleet;
  moved.makespan += 1;
  EXPECT_EQ(compare_digest(Workload::kFleetSoak, moved, fleet).size(), 1u);
}

TEST(Accounting, ChildrenNeverExceedTheirParent) {
  for (const Workload w : {Workload::kPaperSweep, Workload::kFleetFaulty}) {
    Tracer tracer;
    tracer.set_enabled(true);
    run_round(w, kPinnedSeed, tracer);
    const std::vector<Span>& spans = tracer.spans();
    EXPECT_EQ(check_children_fit(spans), "") << workload_name(w);
    // Self times, the root's remainder included, add up to the root's wall.
    double self = 0.0;
    for (const NameTime& nt : time_by_name(spans, 0, spans.size())) self += nt.self_s;
    ASSERT_EQ(std::string(spans.front().name), "workload");
    EXPECT_NEAR(self, spans.front().duration(), 1e-9);
  }
}

TEST(Accounting, DetectsAnOverfullParent) {
  std::vector<Span> spans(3);
  spans[0] = {"workload", 0.0, 1.0, -1, 0, {}};
  spans[1] = {"soc.setup", 0.0, 0.6, 0, 0, {}};
  spans[2] = {"soc.teardown", 0.5, 1.0, 0, 0, {}};
  EXPECT_NE(check_children_fit(spans), "");
  spans[2].start_s = 0.6;
  EXPECT_EQ(check_children_fit(spans), "");
  const std::vector<NameTime> t = time_by_name(spans, 0, spans.size());
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].name, "soc.setup");
  EXPECT_NEAR(t[2].self_s, 0.0, 1e-12);  // "workload": fully covered
}

TEST(Tracer, DisabledRecordsNothingAndSpansCloseInOrder) {
  Tracer t;
  EXPECT_EQ(t.begin("x"), -1);
  t.end(-1);
  EXPECT_TRUE(t.spans().empty());
  t.set_enabled(true);
  const auto a = t.begin("a");
  const auto b = t.begin("b");
  EXPECT_THROW(t.end(a), std::logic_error);
  t.end(b);
  t.end(a);
  ASSERT_EQ(t.spans().size(), 2u);
  EXPECT_EQ(t.spans()[1].parent, a);
  EXPECT_NE(chrome_trace_json(t.spans()).find("\"name\": \"b\""), std::string::npos);
}

}  // namespace
