// Tests for the per-clause Lspec monitors: clean on fault-free runs of both
// programs, each clause individually triggerable by the matching surgical
// fault, and clean suffixes after recovery.
#include <gtest/gtest.h>

#include "algorithm_param.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "me/ricart_agrawala.hpp"

namespace graybox::core {
namespace {

HarnessConfig config_for(std::string algo) {
  HarnessConfig config;
  config.n = 3;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 15;
  config.client.think_mean = 30;
  config.client.eat_mean = 6;
  config.seed = 77;
  return config;
}

class LspecClauseFaultFree : public ::testing::TestWithParam<AlgoParam> {};

TEST_P(LspecClauseFaultFree, AllClausesClean) {
  SystemHarness h(config_for(registry_name(GetParam())));
  h.start();
  h.run_for(5000);
  h.drain(3000);
  const auto& clauses = h.lspec_monitors();
  EXPECT_EQ(clauses.flow->total_violations(), 0u);
  EXPECT_EQ(clauses.cs_transient->total_violations(), 0u);
  EXPECT_EQ(clauses.request_frozen->total_violations(), 0u);
  EXPECT_EQ(clauses.release_tracks_clock->total_violations(), 0u);
  EXPECT_EQ(clauses.entry_taken->total_violations(), 0u);
  EXPECT_EQ(clauses.total_violations(), 0u);
  EXPECT_EQ(clauses.last_violation(), kNever);
  EXPECT_EQ(h.stats().lspec_clause_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Algorithms, LspecClauseFaultFree,
                         ::testing::Values(AlgoParam::kRicartAgrawala,
                                           AlgoParam::kLamport),
                         [](const auto& info) {
                           return info.param == AlgoParam::kRicartAgrawala
                                      ? "ra"
                                      : "lamport";
                         });

TEST(LspecClauses, FlowSpecFlagsIllegalJump) {
  // Park process 0 hungry (outgoing requests lost), then fault it straight
  // back to thinking: h -> t is never a program transition, and the
  // thinking state sticks long enough for the next snapshot to see it.
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.process(0).request_cs();
  h.network().channel(0, 1).fault_clear();
  h.network().channel(0, 2).fault_clear();
  h.run_for(3);
  ASSERT_TRUE(h.process(0).hungry());
  h.process(0).fault_set_state(me::TmeState::kThinking);
  h.run_for(3);
  EXPECT_GT(h.lspec_monitors().flow->total_violations(), 0u);
}

TEST(LspecClauses, RequestSpecFlagsMovedReq) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  // Park process 0 hungry (its requests are lost), then corrupt its REQ.
  h.process(0).request_cs();
  h.network().channel(0, 1).fault_clear();
  h.network().channel(0, 2).fault_clear();
  h.run_for(3);
  ASSERT_TRUE(h.process(0).hungry());
  h.process(0).fault_set_req(clk::Timestamp{999, 0});
  h.run_for(3);
  EXPECT_GT(h.lspec_monitors().request_frozen->total_violations(), 0u);
}

TEST(LspecClauses, ReleaseSpecFlagsDetachedReq) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  while (!h.process(0).thinking()) h.run_for(2);
  h.process(0).fault_set_req(clk::Timestamp{123456, 0});
  h.run_for(3);
  EXPECT_GT(
      h.lspec_monitors().release_tracks_clock->total_violations(), 0u);
}

TEST(LspecClauses, ReleaseSpecViolationHealsOnNextEvent) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  while (!h.process(0).thinking()) h.run_for(2);
  h.process(0).fault_set_req(clk::Timestamp{123456, 0});
  h.run_for(2000);
  h.drain(2000);
  // The clause was violated transiently...
  EXPECT_GT(
      h.lspec_monitors().release_tracks_clock->total_violations(), 0u);
  // ...but healed: the last violation precedes the end by a wide margin.
  EXPECT_LT(h.lspec_monitors().release_tracks_clock->last_violation(),
            1000u);
}

TEST(LspecClauses, CsSpecFlagsEternalEater) {
  // Stop process 0's client (its release obligation with it) while the
  // other clients keep generating events for the snapshot stream: a faked
  // eternal eater is then a genuine CS Spec violation.
  HarnessConfig config = config_for("ricart-agrawala");
  config.client.wants_cs = false;
  SystemHarness h(config);
  h.start();
  h.client(0).stop();
  h.run_for(50);
  h.process(0).fault_set_state(me::TmeState::kEating);
  h.run_for(500);
  h.drain(500);
  EXPECT_GT(h.lspec_monitors().cs_transient->total_violations(), 0u);
}

TEST(LspecClauses, EntrySpecCleanBecausePollingTakesEntries) {
  // Corrupt a process into "hungry with favorable views": the client's
  // poll must take the enabled entry, so the clause stays clean overall
  // after the drain.
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(100);
  auto& p0 = dynamic_cast<me::RicartAgrawala&>(h.process(0));
  p0.fault_set_state(me::TmeState::kHungry);
  p0.fault_set_req(clk::Timestamp{1, 0});
  p0.fault_set_view(1, clk::Timestamp{1'000'000, 1});
  p0.fault_set_view(2, clk::Timestamp{1'000'000, 2});
  h.run_for(3000);
  h.drain(2000);
  EXPECT_EQ(h.lspec_monitors().entry_taken->total_violations(), 0u);
}

TEST(LspecClauses, CleanSuffixAfterRandomCorruption) {
  SystemHarness h(config_for("lamport"));
  h.start();
  h.run_for(500);
  h.faults().burst(6, net::FaultMix::process_only());
  const SimTime fault_at = h.scheduler().now();
  h.run_for(6000);
  h.drain(4000);
  // Whatever clause violations occurred sit in a bounded window after the
  // fault; the suffix is clean.
  const SimTime last = h.lspec_monitors().last_violation();
  if (last != kNever) {
    EXPECT_GE(last, fault_at);
    EXPECT_LT(last, fault_at + 6000);
  }
  EXPECT_TRUE(h.stabilization_report().stabilized);
}

TEST(LspecClauses, CanBeDisabledIndependently) {
  HarnessConfig config = config_for("ricart-agrawala");
  config.install_lspec_monitors = false;
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  EXPECT_EQ(h.lspec_monitors().flow, nullptr);
  EXPECT_EQ(h.lspec_monitors().total_violations(), 0u);
  EXPECT_EQ(h.monitors().size(), 4u);  // only the TME battery
}

TEST(HarnessTrace, RecordsWhenEnabled) {
  HarnessConfig config = config_for("ricart-agrawala");
  config.trace_capacity = 256;
  SystemHarness h(config);
  h.start();
  h.run_for(500);
  const obs::EventBus& bus = h.events();
  EXPECT_GT(bus.total_recorded(), 0u);
  // Spot-check record shapes.
  bool saw_send = false, saw_transition = false;
  for (std::size_t i = 0; i < bus.size(); ++i) {
    const std::string text = bus.render(bus.event(i));
    if (text.rfind("send ", 0) == 0) saw_send = true;
    if (text.find(" -> ") != std::string::npos && text.rfind("proc ", 0) == 0)
      saw_transition = true;
  }
  EXPECT_TRUE(saw_send);
  EXPECT_TRUE(saw_transition);
}

TEST(HarnessTrace, DisabledByDefault) {
  SystemHarness h(config_for("ricart-agrawala"));
  h.start();
  h.run_for(500);
  EXPECT_EQ(h.events().total_recorded(), 0u);
}

}  // namespace
}  // namespace graybox::core
