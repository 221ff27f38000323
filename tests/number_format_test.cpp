// The obs exports format numbers with std::to_chars; the JSONL golden and
// the benchmark's export digest were pinned with printf("%.17g") and
// PRId64. The standard defines the two as equivalent — these tests hold
// the library to it byte for byte.
#include "src/obs/number_format.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

namespace burst {
namespace {

std::string printf_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string printf_i64(std::int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string formatted_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

std::string formatted_i64(std::int64_t v) {
  std::string out;
  append_i64(out, v);
  return out;
}

TEST(NumberFormat, DoubleEdgeCasesMatchPrintf) {
  using L = std::numeric_limits<double>;
  const double cases[] = {
      0.0,          -0.0,          1.0,          -1.0,
      0.5,          0.1,           1.0 / 3.0,    2.5e-3,
      1e-5,         1e-4,          123456.0,     1e16,
      1e17,         1e21,          1e308,        -1e308,
      L::max(),     L::lowest(),   L::min(),     -L::min(),
      L::denorm_min(), -L::denorm_min(), 4.9406564584124654e-320,
      L::epsilon(), L::infinity(), -L::infinity(),
      // Integers held as doubles (counts, occupancies, microsecond ts).
      42.0,         1000.0,        1500000.0,    9007199254740992.0,
      -9007199254740993.0,
  };
  for (const double v : cases) {
    EXPECT_EQ(formatted_double(v), printf_double(v)) << printf_double(v);
  }
}

TEST(NumberFormat, IntegersMatchPrintf) {
  using L = std::numeric_limits<std::int64_t>;
  for (const std::int64_t v :
       {std::int64_t{0}, std::int64_t{-1}, std::int64_t{7}, std::int64_t{-42},
        std::int64_t{1000000}, L::max(), L::min()}) {
    EXPECT_EQ(formatted_i64(v), printf_i64(v));
  }
  std::string u;
  append_u64(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(u, "18446744073709551615");
}

// Seeded sweep: random bit patterns cover every exponent and sign (NaN
// patterns are skipped — the exports never carry NaN, and printf's sign
// spelling of a NaN is implementation-defined), plus values shaped like
// simulation timestamps.
TEST(NumberFormat, RandomDoublesMatchPrintf) {
  std::mt19937_64 gen(20260419);
  std::uniform_real_distribution<double> time_s(0.0, 20.0);
  int mismatches = 0;
  for (int i = 0; i < 200000 && mismatches < 10; ++i) {
    double v;
    if (i % 2 == 0) {
      const std::uint64_t bits = gen();
      std::memcpy(&v, &bits, sizeof(v));
      if (std::isnan(v)) continue;
    } else {
      v = time_s(gen);
    }
    const std::string want = printf_double(v);
    const std::string got = formatted_double(v);
    if (got != want) {
      ++mismatches;
      ADD_FAILURE() << "to_chars " << got << " vs printf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(NumberFormat, RandomIntegersMatchPrintf) {
  std::mt19937_64 gen(7);
  for (int i = 0; i < 100000; ++i) {
    const auto v = static_cast<std::int64_t>(gen()) >> (i % 64);
    ASSERT_EQ(formatted_i64(v), printf_i64(v));
  }
}

}  // namespace
}  // namespace burst
