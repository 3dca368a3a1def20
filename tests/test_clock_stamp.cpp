// Sparse clock stamps: golden equivalence against the dense reference.
//
// The wire format changed (net::Message carries a ClockStamp — usually a
// delta of the components changed since the channel's last genuine send —
// instead of a full VectorClock copy), but the clocks every process
// computes must not change by a single bit. Two layers of evidence:
//
//   1. Unit/fuzz tests on ClockStamp itself: a single-channel simulation
//      where the receiver folds delta/dense stamps and must track, exactly,
//      a dense-reference receiver that witnesses the sender's full clock —
//      across 2..300 components, random change patterns, and the
//      absorb_older unions the fault-repair path builds.
//   2. Dual-harness runs across the full fault matrix: the same seed with
//      reference_dense_clocks on and off must produce identical monitor
//      verdicts, stats, CS schedules, and stabilization reports. The same
//      battery pins reference_full_sweep_monitors at N=64, certifying the
//      incremental monitor paths verdict-identical under every fault kind.
#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "algorithm_param.hpp"
#include "clock/clock_stamp.hpp"
#include "clock/vector_clock.hpp"
#include "core/harness.hpp"
#include "core/stabilization.hpp"
#include "net/fault_injector.hpp"

namespace graybox {
namespace {

using clk::ClockStamp;
using clk::VectorClock;

// --- ClockStamp unit behaviour --------------------------------------------

TEST(ClockStamp, EmptyDenseDeltaModes) {
  ClockStamp empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);

  VectorClock c(2, 5);
  c.tick();
  c.tick();
  ClockStamp dense = ClockStamp::dense(c);
  ASSERT_TRUE(dense.is_dense());
  EXPECT_EQ(dense.size(), 5u);
  EXPECT_EQ(dense.to_clock().component(2), 2u);

  ClockStamp delta = ClockStamp::delta(2, 5);
  ASSERT_TRUE(delta.is_delta());
  EXPECT_TRUE(delta.add_entry(2, 2));
  EXPECT_TRUE(delta.add_entry(4, 7));
  EXPECT_EQ(delta.size(), 5u);  // components spoken for, not entry count
  EXPECT_EQ(delta.entries().size(), 2u);
  const VectorClock back = delta.to_clock();
  EXPECT_EQ(back.component(2), 2u);
  EXPECT_EQ(back.component(4), 7u);
  EXPECT_EQ(back.component(0), 0u);
}

TEST(ClockStamp, AddEntryRefusesInlineOverflow) {
  ClockStamp d = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    EXPECT_TRUE(d.add_entry(c, c + 1));
  }
  // The send path falls back to a dense stamp instead of spilling: a delta
  // wider than the inline capacity would rarely be smaller than the clock.
  EXPECT_FALSE(d.add_entry(20, 1));
  EXPECT_EQ(d.entries().size(), ClockStamp::kInlineEntries);
}

TEST(ClockStamp, AbsorbOlderUnionsAndSpills) {
  // Two disjoint 14-entry deltas union to 28 entries — the repair path's
  // heap spill, exercised only by fault unions, never by sends.
  ClockStamp newer = ClockStamp::delta(0, 64);
  ClockStamp older = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    ASSERT_TRUE(newer.add_entry(c, 100 + c));
    ASSERT_TRUE(older.add_entry(32 + c, 200 + c));
  }
  newer.absorb_older(older);
  ASSERT_TRUE(newer.is_delta());
  EXPECT_EQ(newer.entries().size(), 2u * ClockStamp::kInlineEntries);
  const VectorClock merged = newer.to_clock();
  EXPECT_EQ(merged.component(3), 103u);
  EXPECT_EQ(merged.component(35), 203u);
}

TEST(ClockStamp, AbsorbOlderNewerEntriesWin) {
  ClockStamp newer = ClockStamp::delta(1, 8);
  ClockStamp older = ClockStamp::delta(1, 8);
  ASSERT_TRUE(newer.add_entry(3, 9));
  ASSERT_TRUE(older.add_entry(3, 5));
  ASSERT_TRUE(older.add_entry(6, 2));
  newer.absorb_older(older);
  const VectorClock merged = newer.to_clock();
  EXPECT_EQ(merged.component(3), 9u);  // newer value kept
  EXPECT_EQ(merged.component(6), 2u);  // older-only component adopted
}

TEST(ClockStamp, AbsorbDenseDensifiesToAtSendClock) {
  // Delta over dense: the older full clock overlaid with the delta's
  // entries is exactly the newer message's at-send clock.
  VectorClock base(0, 6);
  for (int i = 0; i < 4; ++i) base.tick();
  ClockStamp newer = ClockStamp::delta(0, 6);
  ASSERT_TRUE(newer.add_entry(0, 5));
  ASSERT_TRUE(newer.add_entry(2, 3));
  newer.absorb_older(ClockStamp::dense(base));
  ASSERT_TRUE(newer.is_dense());
  EXPECT_EQ(newer.dense_clock().component(0), 5u);
  EXPECT_EQ(newer.dense_clock().component(2), 3u);
  EXPECT_EQ(newer.dense_clock().component(1), 0u);
}

TEST(ClockStamp, CopyIsDeepForSpilledEntries) {
  ClockStamp a = ClockStamp::delta(0, 64);
  ClockStamp b = ClockStamp::delta(0, 64);
  for (std::uint32_t c = 0; c < ClockStamp::kInlineEntries; ++c) {
    ASSERT_TRUE(a.add_entry(c, 1));
    ASSERT_TRUE(b.add_entry(20 + c, 2));
  }
  a.absorb_older(b);  // spilled
  ClockStamp copy = a;
  a.absorb_older(ClockStamp::dense(VectorClock(0, 64)));  // densify a
  EXPECT_TRUE(copy.is_delta());
  EXPECT_EQ(copy.entries().size(), 2u * ClockStamp::kInlineEntries);
}

// --- Single-channel fuzz: fold(delta) + tick == witness(full clock) -------

// Simulates one sender/receiver channel the way Network does: the sender's
// clock evolves, each send carries either a delta of the components changed
// since the previous send or a dense fallback, and the receiver folds the
// stamp entrywise and ticks. The dense-reference receiver witnesses the
// sender's full at-send clock. The two must agree componentwise forever.
TEST(ClockStampFuzz, ChannelFoldMatchesDenseWitness) {
  std::mt19937_64 rng(20260809);
  for (const std::size_t n : {2u, 3u, 7u, 14u, 15u, 16u, 33u, 64u, 128u,
                              300u}) {
    VectorClock sender(0, n);
    VectorClock receiver_sparse(1, n);
    VectorClock receiver_dense(1, n);
    std::vector<std::uint64_t> baseline(n, 0);  // sender comps at last send

    for (int round = 0; round < 200; ++round) {
      // Sender activity: fold a few random remote components upward, then
      // tick its own — the same moves a real clock makes.
      const std::size_t changes = rng() % std::min<std::size_t>(n, 6);
      for (std::size_t i = 0; i < changes; ++i) {
        const std::size_t c = rng() % n;
        sender.fold(c, sender.component(c) + 1 + rng() % 3);
      }
      sender.tick();

      // Build the stamp exactly like Network::build_stamp: delta of the
      // changed components, dense on inline overflow or 1-in-8 forcing.
      ClockStamp stamp = ClockStamp::delta(0, n);
      bool fits = (rng() % 8) != 0;
      if (fits) {
        for (std::size_t c = 0; c < n && fits; ++c) {
          if (sender.component(c) != baseline[c]) {
            fits = stamp.add_entry(static_cast<std::uint32_t>(c),
                                   sender.component(c));
          }
        }
      }
      if (!fits) stamp = ClockStamp::dense(sender);
      for (std::size_t c = 0; c < n; ++c) baseline[c] = sender.component(c);

      // Deliver: fold + tick on the sparse side, witness on the reference.
      if (stamp.is_dense()) {
        const VectorClock& full = stamp.dense_clock();
        for (std::size_t c = 0; c < n; ++c) {
          receiver_sparse.fold(c, full.component(c));
        }
      } else {
        for (const ClockStamp::Entry& e : stamp.entries()) {
          receiver_sparse.fold(e.comp, e.value);
        }
      }
      receiver_sparse.tick();
      receiver_dense.witness(sender);

      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(receiver_sparse.component(c), receiver_dense.component(c))
            << "n=" << n << " round=" << round << " comp=" << c;
      }
      EXPECT_TRUE(receiver_sparse.happened_before(sender) ==
                  receiver_dense.happened_before(sender));
    }
  }
}

// Drop repair: folding `survivor.absorb_older(dropped)` must leave the
// receiver exactly where folding dropped-then-survivor would have — the
// union replays the dropped stamp's information at the survivor's delivery.
TEST(ClockStampFuzz, AbsorbOlderEqualsFoldingBothInOrder) {
  std::mt19937_64 rng(424242);
  for (const std::size_t n : {2u, 5u, 14u, 40u, 300u}) {
    for (int round = 0; round < 100; ++round) {
      VectorClock sender(0, n);
      auto advance = [&] {
        const std::size_t changes = rng() % std::min<std::size_t>(n, 5);
        for (std::size_t i = 0; i < changes; ++i) {
          const std::size_t c = rng() % n;
          sender.fold(c, sender.component(c) + 1 + rng() % 4);
        }
        sender.tick();
      };
      auto make_stamp = [&](const std::vector<std::uint64_t>& base) {
        ClockStamp s = ClockStamp::delta(0, n);
        bool fits = (rng() % 6) != 0;
        for (std::size_t c = 0; c < n && fits; ++c) {
          if (sender.component(c) != base[c]) {
            fits =
                s.add_entry(static_cast<std::uint32_t>(c), sender.component(c));
          }
        }
        if (!fits) s = ClockStamp::dense(sender);
        return s;
      };

      std::vector<std::uint64_t> base(n, 0);
      advance();
      ClockStamp older = make_stamp(base);
      for (std::size_t c = 0; c < n; ++c) base[c] = sender.component(c);
      advance();
      ClockStamp newer = make_stamp(base);

      auto fold_into = [n](VectorClock& r, const ClockStamp& s) {
        if (s.is_dense()) {
          for (std::size_t c = 0; c < n; ++c) {
            r.fold(c, s.dense_clock().component(c));
          }
        } else {
          for (const ClockStamp::Entry& e : s.entries()) r.fold(e.comp, e.value);
        }
        r.tick();
      };

      VectorClock both(1, n);
      fold_into(both, older);
      fold_into(both, newer);

      ClockStamp repaired = newer;
      repaired.absorb_older(older);
      VectorClock merged(1, n);
      fold_into(merged, older);  // the dropped message still delivered here:
      fold_into(merged, repaired);
      for (std::size_t c = 0; c < n; ++c) {
        ASSERT_EQ(both.component(c), merged.component(c))
            << "n=" << n << " round=" << round;
      }

      // And when the older message is truly gone, the union must carry at
      // least everything the pair carried (it may only over-approximate by
      // the receiver's own already-held components, never under-shoot).
      VectorClock only_union(1, n);
      fold_into(only_union, repaired);
      const VectorClock reference = [&] {
        VectorClock r(1, n);
        fold_into(r, older);
        fold_into(r, newer);
        return r;
      }();
      for (std::size_t c = 0; c < n; ++c) {
        if (c == 1) continue;  // receiver's own component: one fewer tick
        ASSERT_GE(only_union.component(c) + 1, reference.component(c));
      }
    }
  }
}

// --- Dual-harness equivalence: sparse wire stamps vs dense reference ------

struct ObservedRun {
  std::vector<std::pair<SimTime, std::size_t>> cs_schedule;
  std::vector<std::string> monitor_names;
  std::vector<std::uint64_t> totals;
  std::vector<SimTime> first_times;
  std::vector<SimTime> last_times;
  std::vector<std::string> retained;
  core::RunStats stats;
  core::StabilizationReport report;
};

enum class Reference { kDenseClocks, kFullSweepMonitors };

ObservedRun run_once(core::AlgorithmId algo, std::size_t n, net::FaultMix mix,
                     std::size_t burst, std::uint64_t seed, Reference which,
                     bool reference_on, SimTime horizon) {
  core::HarnessConfig config;
  config.n = n;
  config.algorithm = algo;
  config.wrapped = true;
  config.wrapper.resend_period = 20;
  config.client.think_mean = n >= 32 ? 8 * static_cast<SimTime>(n) : 40;
  config.client.eat_mean = 8;
  config.seed = seed;
  if (which == Reference::kDenseClocks) {
    config.reference_dense_clocks = reference_on;
  } else {
    config.reference_full_sweep_monitors = reference_on;
  }

  core::SystemHarness h(config);

  ObservedRun out;
  std::vector<bool> was_eating(config.n, false);
  h.scheduler().add_observer([&](SimTime t) {
    for (std::size_t j = 0; j < config.n; ++j) {
      const bool eating =
          h.process(static_cast<ProcessId>(j)).state() == me::TmeState::kEating;
      if (eating && !was_eating[j]) out.cs_schedule.emplace_back(t, j);
      was_eating[j] = eating;
    }
  });

  h.start();
  h.run_for(horizon / 4);
  if (burst > 0) h.faults().burst(burst, mix);
  h.run_for(horizon);
  h.drain(horizon);

  for (const auto& m : h.monitors().monitors()) {
    out.monitor_names.push_back(m->name());
    out.totals.push_back(m->total_violations());
    out.first_times.push_back(m->first_violation());
    out.last_times.push_back(m->last_violation());
    for (const auto& v : m->violations()) out.retained.push_back(v.to_string());
  }
  out.stats = h.stats();
  out.report = h.stabilization_report();
  return out;
}

void expect_equivalent(const ObservedRun& a, const ObservedRun& b) {
  EXPECT_EQ(a.cs_schedule, b.cs_schedule);
  ASSERT_EQ(a.monitor_names, b.monitor_names);
  EXPECT_EQ(a.totals, b.totals);
  EXPECT_EQ(a.first_times, b.first_times);
  EXPECT_EQ(a.last_times, b.last_times);
  EXPECT_EQ(a.retained, b.retained);
  EXPECT_EQ(a.stats.duration, b.stats.duration);
  EXPECT_EQ(a.stats.cs_entries, b.stats.cs_entries);
  EXPECT_EQ(a.stats.requests_issued, b.stats.requests_issued);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.wrapper_messages, b.stats.wrapper_messages);
  EXPECT_EQ(a.stats.me1_violations, b.stats.me1_violations);
  EXPECT_EQ(a.stats.me3_violations, b.stats.me3_violations);
  EXPECT_EQ(a.stats.invariant_violations, b.stats.invariant_violations);
  EXPECT_EQ(a.stats.me2_served, b.stats.me2_served);
  EXPECT_EQ(a.stats.me2_max_wait, b.stats.me2_max_wait);
  EXPECT_EQ(a.stats.lspec_clause_violations, b.stats.lspec_clause_violations);
  EXPECT_EQ(a.stats.faults_injected, b.stats.faults_injected);
  EXPECT_EQ(a.stats.events_executed, b.stats.events_executed);
  EXPECT_EQ(a.report.stabilized, b.report.stabilized);
  EXPECT_EQ(a.report.starvation, b.report.starvation);
  EXPECT_EQ(a.report.last_fault, b.report.last_fault);
  EXPECT_EQ(a.report.last_safety_violation, b.report.last_safety_violation);
  EXPECT_EQ(a.report.latency, b.report.latency);
  EXPECT_EQ(a.report.violations_total, b.report.violations_total);
}

// Sparse stamps vs dense wire clocks, full fault matrix. Every fault kind
// exercises a different repair: drop/swap/clear move stamp information
// between queue slots, duplicate/corrupt/spurious test the idempotent-fold
// and fabricated-message (empty stamp) paths.
class SparseVsDenseByFaultKind
    : public ::testing::TestWithParam<
          std::tuple<AlgoParam, net::FaultKind, std::uint64_t>> {};

TEST_P(SparseVsDenseByFaultKind, IdenticalVerdicts) {
  const auto [algo, kind, seed] = GetParam();
  const auto mix = net::FaultMix::only(kind);
  const auto sparse = run_once(registry_name(algo), 4, mix, 6, seed,
                               Reference::kDenseClocks, false, 3000);
  const auto dense = run_once(registry_name(algo), 4, mix, 6, seed,
                              Reference::kDenseClocks, true, 3000);
  expect_equivalent(sparse, dense);
}

std::string matrix_name(
    const ::testing::TestParamInfo<
        std::tuple<AlgoParam, net::FaultKind, std::uint64_t>>& info) {
  std::string name = registry_name(std::get<0>(info.param));
  name += "_";
  name += net::to_string(std::get<1>(info.param));
  name += "_s" + std::to_string(std::get<2>(info.param));
  for (auto& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SparseVsDenseByFaultKind,
    ::testing::Combine(
        ::testing::Values(AlgoParam::kRicartAgrawala, AlgoParam::kLamport),
        ::testing::Values(net::FaultKind::kMessageDrop,
                          net::FaultKind::kMessageDuplicate,
                          net::FaultKind::kMessageCorrupt,
                          net::FaultKind::kMessageReorder,
                          net::FaultKind::kSpuriousMessage,
                          net::FaultKind::kProcessCorrupt,
                          net::FaultKind::kChannelClear),
        ::testing::Values(11u)),
    matrix_name);

TEST(SparseVsDense, MixedBurstCarvalhoRoucairol) {
  const auto sparse =
      run_once(core::AlgorithmId{"carvalho-roucairol"}, 5, net::FaultMix::all(), 15,
               3, Reference::kDenseClocks, false, 3000);
  const auto dense =
      run_once(core::AlgorithmId{"carvalho-roucairol"}, 5, net::FaultMix::all(), 15,
               3, Reference::kDenseClocks, true, 3000);
  expect_equivalent(sparse, dense);
}

TEST(SparseVsDense, N64MixedBurst) {
  // The scale the delta encoding exists for: at N=64 dense stamps copy 64
  // components per message; the sparse run must still be bit-identical.
  const auto sparse = run_once("ricart-agrawala", 64,
                               net::FaultMix::all(), 12, 9,
                               Reference::kDenseClocks, false, 1200);
  const auto dense = run_once("ricart-agrawala", 64,
                              net::FaultMix::all(), 12, 9,
                              Reference::kDenseClocks, true, 1200);
  expect_equivalent(sparse, dense);
}

// --- Incremental monitors vs full sweeps at N=64, full fault matrix -------

class IncrementalVsFullSweep
    : public ::testing::TestWithParam<net::FaultKind> {};

TEST_P(IncrementalVsFullSweep, IdenticalVerdictsAtN64) {
  const auto mix = net::FaultMix::only(GetParam());
  const auto incremental =
      run_once("ricart-agrawala", 64, mix, 10, 13,
               Reference::kFullSweepMonitors, false, 900);
  const auto full =
      run_once("ricart-agrawala", 64, mix, 10, 13,
               Reference::kFullSweepMonitors, true, 900);
  expect_equivalent(incremental, full);
}

INSTANTIATE_TEST_SUITE_P(
    FaultMatrix, IncrementalVsFullSweep,
    ::testing::Values(net::FaultKind::kMessageDrop,
                      net::FaultKind::kMessageDuplicate,
                      net::FaultKind::kMessageCorrupt,
                      net::FaultKind::kMessageReorder,
                      net::FaultKind::kSpuriousMessage,
                      net::FaultKind::kProcessCorrupt,
                      net::FaultKind::kChannelClear),
    [](const ::testing::TestParamInfo<net::FaultKind>& info) {
      std::string name = net::to_string(info.param);
      for (auto& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(IncrementalVsFullSweep, MutualBeliefMonitorCoveredAtN64) {
  // Carvalho-Roucairol installs the 5th monitor (MutualBelief); its
  // incremental guard needs its own equivalence run.
  const auto mix = net::FaultMix::all();
  const auto incremental =
      run_once(core::AlgorithmId{"carvalho-roucairol"}, 64, mix, 10, 17,
               Reference::kFullSweepMonitors, false, 900);
  const auto full =
      run_once(core::AlgorithmId{"carvalho-roucairol"}, 64, mix, 10, 17,
               Reference::kFullSweepMonitors, true, 900);
  expect_equivalent(incremental, full);
}

}  // namespace
}  // namespace graybox
