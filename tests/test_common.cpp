#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "common/cli.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace pimwfa {
namespace {

TEST(Bits, IsPow2) {
  EXPECT_FALSE(is_pow2(0));
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(2));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_TRUE(is_pow2(1ull << 40));
  EXPECT_FALSE(is_pow2((1ull << 40) + 1));
}

TEST(Bits, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(0, 8), 0u);
  EXPECT_EQ(round_up_pow2(1, 8), 8u);
  EXPECT_EQ(round_up_pow2(8, 8), 8u);
  EXPECT_EQ(round_up_pow2(9, 8), 16u);
  EXPECT_EQ(round_up_pow2(1023, 1024), 1024u);
}

TEST(Bits, RoundDownPow2) {
  EXPECT_EQ(round_down_pow2(0, 8), 0u);
  EXPECT_EQ(round_down_pow2(7, 8), 0u);
  EXPECT_EQ(round_down_pow2(8, 8), 8u);
  EXPECT_EQ(round_down_pow2(15, 8), 8u);
}

TEST(Bits, IsAlignedPow2) {
  EXPECT_TRUE(is_aligned_pow2(0, 8));
  EXPECT_TRUE(is_aligned_pow2(16, 8));
  EXPECT_FALSE(is_aligned_pow2(4, 8));
}

TEST(Bits, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(Bits, BitsFor) {
  EXPECT_EQ(bits_for(0), 0u);
  EXPECT_EQ(bits_for(1), 0u);
  EXPECT_EQ(bits_for(2), 1u);
  EXPECT_EQ(bits_for(256), 8u);
  EXPECT_EQ(bits_for(257), 9u);
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Rng rng(7);
  bool seen[8] = {};
  for (int i = 0; i < 1000; ++i) seen[rng.next_below(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, NextRangeInclusive) {
  Rng rng(9);
  bool seen_lo = false;
  bool seen_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const i64 v = rng.next_range(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen_lo |= (v == -3);
    seen_hi |= (v == 3);
  }
  EXPECT_TRUE(seen_lo);
  EXPECT_TRUE(seen_hi);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Strings, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(Strings, SplitSingleField) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi \t\n"), "hi");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, IEquals) {
  EXPECT_TRUE(iequals("AbC", "aBc"));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "ab"));
}

TEST(Strings, WithCommas) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(5000000), "5,000,000");
}

TEST(Strings, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(64 * 1024), "64.00 KiB");
  EXPECT_EQ(format_bytes(64ull * 1024 * 1024), "64.00 MiB");
}

TEST(Strings, FormatSeconds) {
  EXPECT_EQ(format_seconds(2.5), "2.500 s");
  EXPECT_EQ(format_seconds(0.0025), "2.50 ms");
  EXPECT_EQ(format_seconds(2.5e-6), "2.50 us");
}

TEST(Stats, RunningStatsBasic) {
  RunningStats s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.add(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, RunningStatsMerge) {
  RunningStats a;
  RunningStats b;
  RunningStats all;
  for (int i = 0; i < 10; ++i) {
    const double v = i * 1.5 - 3;
    (i < 5 ? a : b).add(v);
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
}

TEST(Stats, SampleSetQuantiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) s.add(i);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(s.median(), 51.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(s.mean(), 50.5);
}

TEST(Stats, HistogramBuckets) {
  Histogram h(0.0, 10.0, 10);
  h.add(0.5);
  h.add(9.5);
  h.add(-5.0);   // clamps to first bucket
  h.add(100.0);  // clamps to last bucket
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Cli, ParsesFlagsAndPositional) {
  // Bare boolean flags must come last or use --flag=value form; a
  // following non-flag token would be consumed as the flag's value.
  const char* argv[] = {"prog", "--pairs", "100", "input.seq", "--scale=0.5",
                        "--verbose"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("pairs", 0), 100);
  EXPECT_DOUBLE_EQ(cli.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(cli.get_bool("verbose", false));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "input.seq");
}

TEST(Cli, Fallbacks) {
  const char* argv[] = {"prog"};
  Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("missing", 42), 42);
  EXPECT_EQ(cli.get_string("name", "dflt"), "dflt");
  EXPECT_FALSE(cli.get_bool("flag", false));
}

TEST(Cli, HelpRequested) {
  const char* argv[] = {"prog", "--help"};
  Cli cli(2, argv);
  EXPECT_TRUE(cli.help_requested());
}

TEST(Cli, RejectsBadInteger) {
  const char* argv[] = {"prog", "--n", "abc"};
  Cli cli(3, argv);
  EXPECT_THROW(cli.get_int("n", 0), InvalidArgument);
}

TEST(Cli, RejectsFlagsNoGetterRegistered) {
  const char* argv[] = {"prog", "--pairs", "8", "--bogus", "7", "--typo=1"};
  Cli cli(6, argv);
  EXPECT_EQ(cli.get_int("pairs", 0), 8);
  try {
    cli.reject_unknown_flags();
    ADD_FAILURE() << "unknown flags accepted";
  } catch (const InvalidArgument& error) {
    EXPECT_STREQ(error.what(), "unknown flags --bogus, --typo");
  }
  cli.get_string("bogus", "");
  cli.get_bool("typo", false);
  EXPECT_NO_THROW(cli.reject_unknown_flags());
}

TEST(Check, ThrowsTypedErrors) {
  EXPECT_THROW(PIMWFA_CHECK(false, "boom"), Error);
  EXPECT_THROW(PIMWFA_ARG_CHECK(false, "bad arg"), InvalidArgument);
  EXPECT_THROW(PIMWFA_HW_CHECK(false, "fault"), HardwareFault);
}

}  // namespace
}  // namespace pimwfa
