// Deterministic random-input fuzzing for the two text parsers that take
// user input: mc::ScheduleTrace::from_text (replayed counterexample files)
// and Flags::get_int / get_double (every bench and example command line).
//
// Each test draws a fixed number of cases from a seeded Rng, so a failure
// reproduces exactly. The properties:
//   * from_text on a mutated to_text() rendering either rejects the input
//     or yields a trace whose own rendering is a fixed point — parsing it
//     again gives the same trace and the same bytes;
//   * a numeric flag value parses to exactly what std::from_chars gives on
//     the whole string, or the call exits 2 with usage.
#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

#include "common/flags.hpp"
#include "common/rng.hpp"
#include "mc/trace.hpp"

namespace graybox {
namespace {

// --- ScheduleTrace::from_text ------------------------------------------------

mc::ScheduleTrace random_trace(Rng& rng) {
  mc::ScheduleTrace t;
  t.seed = rng.chance(0.2) ? rng.next() : rng.uniform(0, 1000);
  const std::size_t choices = rng.index(6);
  for (std::size_t i = 0; i < choices; ++i)
    t.choices.push_back(static_cast<std::uint32_t>(rng.uniform(0, 9)));
  const std::size_t faults = rng.index(4);
  std::uint64_t at = 0;
  for (std::size_t i = 0; i < faults; ++i) {
    mc::FaultAt f;
    at += rng.uniform(0, 50);
    f.at_event = at;
    f.fault.code =
        static_cast<std::uint8_t>(rng.index(net::kFaultCodeCount));
    f.fault.a = static_cast<ProcessId>(rng.uniform(0, 4));
    f.fault.b = static_cast<ProcessId>(rng.uniform(0, 4));
    f.fault.index = static_cast<std::uint32_t>(rng.uniform(0, 3));
    f.fault.index2 = static_cast<std::uint32_t>(rng.uniform(0, 3));
    f.fault.mask = rng.uniform(0, 15);
    t.faults.push_back(f);
  }
  return t;
}

/// One random edit: insert, delete, overwrite or duplicate a span. The
/// alphabet mixes digits, separators, signs and key letters so edits land
/// on both near-valid and garbage inputs.
void mutate(std::string& text, Rng& rng) {
  static const std::string alphabet = "0123456789 \n\t-+x.seedchoicsfault";
  const std::size_t pos = text.empty() ? 0 : rng.index(text.size() + 1);
  const char c = alphabet[rng.index(alphabet.size())];
  switch (rng.index(4)) {
    case 0:
      text.insert(pos, 1, c);
      break;
    case 1:
      if (pos < text.size()) text.erase(pos, 1 + rng.index(3));
      break;
    case 2:
      if (pos < text.size()) text[pos] = c;
      break;
    default:
      if (pos < text.size())
        text.insert(pos, text.substr(pos, 1 + rng.index(8)));
      break;
  }
}

bool same_trace(const mc::ScheduleTrace& a, const mc::ScheduleTrace& b) {
  if (a.seed != b.seed || a.choices != b.choices ||
      a.faults.size() != b.faults.size())
    return false;
  for (std::size_t i = 0; i < a.faults.size(); ++i) {
    const net::TargetedFault& x = a.faults[i].fault;
    const net::TargetedFault& y = b.faults[i].fault;
    if (a.faults[i].at_event != b.faults[i].at_event || x.code != y.code ||
        x.a != y.a || x.b != y.b || x.index != y.index ||
        x.index2 != y.index2 || x.mask != y.mask)
      return false;
  }
  return true;
}

TEST(InputFuzz, ScheduleTraceRejectsOrRoundTripsByteStable) {
  Rng rng(0x7ace);
  std::size_t accepted = 0, rejected = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const mc::ScheduleTrace original = random_trace(rng);
    std::string text = original.to_text();
    // Unmutated renderings always parse back to the same trace.
    const auto clean = mc::ScheduleTrace::from_text(text);
    ASSERT_TRUE(clean.has_value()) << text;
    ASSERT_TRUE(same_trace(*clean, original)) << text;

    const std::size_t edits = 1 + rng.index(3);
    for (std::size_t e = 0; e < edits; ++e) mutate(text, rng);
    const auto parsed = mc::ScheduleTrace::from_text(text);
    if (!parsed.has_value()) {
      ++rejected;
      continue;
    }
    ++accepted;
    for (const mc::FaultAt& f : parsed->faults)
      ASSERT_LT(f.fault.code, net::kFaultCodeCount) << text;
    const std::string rendered = parsed->to_text();
    const auto again = mc::ScheduleTrace::from_text(rendered);
    ASSERT_TRUE(again.has_value()) << "iter " << iter << "\n" << text;
    ASSERT_TRUE(same_trace(*again, *parsed)) << "iter " << iter << "\n"
                                             << text;
    ASSERT_EQ(again->to_text(), rendered) << "iter " << iter;
  }
  // The mutator must exercise both outcomes for the property to mean much.
  EXPECT_GT(accepted, 100u);
  EXPECT_GT(rejected, 100u);
}

// --- Flags::get_int / get_double ---------------------------------------------

std::string random_value(Rng& rng) {
  static const char* const pieces[] = {
      "0", "1", "7", "9", "12", "-", "+", ".", "e", "E", "x", " ", "inf",
      "nan", "0x1p3", "9223372036854775807", "9223372036854775808", "1e308",
      "1e999", "-0"};
  std::string v;
  const std::size_t n = rng.index(5);
  for (std::size_t i = 0; i < n; ++i)
    v += pieces[rng.index(std::size(pieces))];
  return v;
}

template <typename T>
bool from_chars_whole(const std::string& s, T& out) {
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

/// Parse `value` as --v and compare against std::from_chars. Returns false
/// when the value must be rejected (checked by the caller with a bounded
/// number of death tests).
template <typename T>
bool check_accepted(const std::string& value) {
  T expected{};
  if (!from_chars_whole(value, expected)) return false;
  const std::string arg = "--v=" + value;
  const char* argv[] = {"prog", arg.c_str()};
  Flags flags(2, argv, {{"v", ""}});
  if constexpr (std::is_same_v<T, double>) {
    const double got = flags.get_double("v", 0.25);
    if (std::isnan(expected)) {
      EXPECT_TRUE(std::isnan(got)) << value;
    } else {
      EXPECT_EQ(std::memcmp(&got, &expected, sizeof got), 0) << value;
    }
  } else {
    EXPECT_EQ(flags.get_int("v", 5), expected) << value;
  }
  return true;
}

template <typename T>
void fuzz_flag_values(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> rejects;
  std::size_t accepted = 0;
  for (int iter = 0; iter < 4000; ++iter) {
    const std::string value = random_value(rng);
    if (check_accepted<T>(value)) {
      ++accepted;
    } else {
      rejects.push_back(value);
    }
  }
  EXPECT_GT(accepted, 200u);
  ASSERT_GT(rejects.size(), 200u);
  // Each death test forks; a fixed sample keeps the suite fast.
  for (std::size_t i = 0; i < 32; ++i) {
    const std::string arg = "--v=" + rejects[i * rejects.size() / 32];
    const char* argv[] = {"prog", arg.c_str()};
    EXPECT_EXIT(
        {
          Flags flags(2, argv, {{"v", ""}});
          if constexpr (std::is_same_v<T, double>) {
            (void)flags.get_double("v", 0.25);
          } else {
            (void)flags.get_int("v", 5);
          }
        },
        ::testing::ExitedWithCode(2), "invalid value '.*' for --v")
        << arg;
  }
}

TEST(InputFuzz, FlagIntMatchesFromCharsOrExits) {
  fuzz_flag_values<std::int64_t>(0xf1a9);
}

TEST(InputFuzz, FlagDoubleMatchesFromCharsOrExits) {
  fuzz_flag_values<double>(0xd0b1e);
}

}  // namespace
}  // namespace graybox
