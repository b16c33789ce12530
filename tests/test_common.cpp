// Unit tests for the common substrate: environment-variable configuration
// (envcfg), the CSV writer, and the deterministic xoshiro256++ RNG.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/envcfg.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "test_helpers.hpp"

using gcnrl::CsvWriter;
using gcnrl::Rng;
using gcnrl::testing::ScopedEnv;

namespace {

// ---------------------------------------------------------------------------
// envcfg: env_int
// ---------------------------------------------------------------------------

TEST(EnvInt, ReturnsFallbackWhenUnset) {
  ScopedEnv e("GCNRL_TEST_UNSET_VAR", nullptr);
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_UNSET_VAR", 42), 42);
}

TEST(EnvInt, ParsesDecimalValue) {
  ScopedEnv e("GCNRL_TEST_INT", "123");
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 0), 123);
}

TEST(EnvInt, ParsesNegativeValue) {
  ScopedEnv e("GCNRL_TEST_INT", "-7");
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 0), -7);
}

TEST(EnvInt, EmptyStringFallsBackSilently) {
  ScopedEnv e("GCNRL_TEST_INT", "");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 9), 9);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST(EnvInt, ValidValueParsesSilently) {
  ScopedEnv e("GCNRL_TEST_INT", "  42  ");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 0), 42);
  EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

// Malformed values must fail LOUDLY (warn + fallback), never silently
// parse to 0 or to a truncated prefix.
TEST(EnvInt, MalformedValueWarnsAndFallsBack) {
  ScopedEnv e("GCNRL_TEST_INT", "not-a-number");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 17), 17);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("GCNRL_TEST_INT"), std::string::npos) << err;
  EXPECT_NE(err.find("not-a-number"), std::string::npos) << err;
  EXPECT_NE(err.find("17"), std::string::npos) << err;
}

TEST(EnvInt, TrailingJunkWarnsAndFallsBack) {
  ScopedEnv e("GCNRL_TEST_INT", "12abc");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 17), 17);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("12abc"),
            std::string::npos);
}

TEST(EnvInt, WhitespaceOnlyWarnsAndFallsBack) {
  // Regression: strtol converts nothing on "   ", and a naive trailing-
  // whitespace skip turned that into a silent 0.
  ScopedEnv e("GCNRL_TEST_INT", "   ");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 23), 23);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("GCNRL_TEST_INT"),
            std::string::npos);
}

TEST(EnvInt, FractionalValueWarnsAndFallsBack) {
  ScopedEnv e("GCNRL_TEST_INT", "1.5");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 3), 3);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("1.5"),
            std::string::npos);
}

TEST(EnvInt, OverflowWarnsAndFallsBack) {
  ScopedEnv e("GCNRL_TEST_INT", "99999999999999999999");
  testing::internal::CaptureStderr();
  EXPECT_EQ(gcnrl::env_int("GCNRL_TEST_INT", 5), 5);
  EXPECT_NE(testing::internal::GetCapturedStderr().find("GCNRL_TEST_INT"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Rng: determinism
// ---------------------------------------------------------------------------

TEST(RngTest, SameSeedSameStream) {
  Rng a(12345), b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next(), b.next()) << "diverged at draw " << i;
  }
}

TEST(RngTest, DifferentSeedsDifferentStreams) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  // Chance of even one 64-bit collision is negligible.
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, SameSeedSameDoubles) {
  Rng a(777), b(777);
  for (int i = 0; i < 100; ++i) {
    ASSERT_DOUBLE_EQ(a.uniform(), b.uniform());
    ASSERT_DOUBLE_EQ(a.normal(), b.normal());
  }
}

// ---------------------------------------------------------------------------
// Rng: distribution ranges
// ---------------------------------------------------------------------------

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(10);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 3.5);
    ASSERT_GE(u, -2.5);
    ASSERT_LT(u, 3.5);
  }
}

TEST(RngTest, UniformIndexCoversRangeWithoutEscape) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t k = rng.uniform_index(7);
    ASSERT_LT(k, 7u);
    seen.insert(k);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues hit in 2000 draws
}

TEST(RngTest, TruncatedNormalStaysInBounds) {
  Rng rng(12);
  for (int i = 0; i < 5000; ++i) {
    const double x = rng.truncated_normal(0.0, 1.0, -0.5, 0.5);
    ASSERT_GE(x, -0.5);
    ASSERT_LE(x, 0.5);
  }
}

TEST(RngTest, NormalMeanAndSpreadRoughlyCorrect) {
  Rng rng(13);
  const int n = 20000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(var, 4.0, 0.3);
}

// ---------------------------------------------------------------------------
// Rng: stream independence via split()
// ---------------------------------------------------------------------------

TEST(RngTest, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng p1(42), p2(42);
  Rng c1 = p1.split(), c2 = p2.split();
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(c1.next(), c2.next());
  }
}

TEST(RngTest, SuccessiveSplitsDiffer) {
  Rng parent(7);
  Rng a = parent.split();
  Rng b = parent.split();
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng.shuffle(v);
  std::set<int> s(v.begin(), v.end());
  EXPECT_EQ(s.size(), 10u);
}

// ---------------------------------------------------------------------------
// CsvWriter
// ---------------------------------------------------------------------------

// A cell holding the separator, a quote, CR or LF is quoted (RFC 4180),
// with embedded quotes doubled; every other cell is written as is, so a
// free-text label can never add a column.
TEST(CsvWriter, QuotesFieldsWithSeparatorsOrQuotes) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "gcnrl_csv_quoting.csv")
          .string();
  {
    CsvWriter csv(path);
    csv.row({"task", "label", "best"});
    csv.row({"0", "ES, short \"run\"", "1.5"});
    csv.row({"1", "two\nlines", "cr\rcell"});
    csv.row({"2", "plain-label_1.0", ""});
  }
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  std::remove(path.c_str());
  EXPECT_EQ(text.str(),
            "task,label,best\n"
            "0,\"ES, short \"\"run\"\"\",1.5\n"
            "1,\"two\nlines\",\"cr\rcell\"\n"
            "2,plain-label_1.0,\n");
}

}  // namespace
