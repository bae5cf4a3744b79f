// Unit tests for common/: time, units, rng, distributions, histograms,
// CRC-32 and the crash-safe file helpers.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "common/atomic_file.hpp"
#include "common/config.hpp"
#include "common/crc32.hpp"
#include "common/invariant.hpp"
#include "common/distributions.hpp"
#include "common/histogram.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace sirius {
namespace {

using namespace sirius::literals;

TEST(Time, FactoryUnitsAgree) {
  EXPECT_EQ(Time::ns(1).picoseconds(), 1'000);
  EXPECT_EQ(Time::us(1), Time::ns(1'000));
  EXPECT_EQ(Time::ms(1), Time::us(1'000));
  EXPECT_EQ(Time::sec(1), Time::ms(1'000));
  EXPECT_EQ(100_ns, Time::ps(100'000));
}

TEST(Time, FromDoubleRounds) {
  EXPECT_EQ(Time::from_ns(3.84).picoseconds(), 3'840);
  EXPECT_EQ(Time::from_ns(0.9121).picoseconds(), 912);
  EXPECT_EQ(Time::from_sec(1e-12).picoseconds(), 1);
}

TEST(Time, Arithmetic) {
  const Time a = 90_ns, b = 10_ns;
  EXPECT_EQ(a + b, 100_ns);
  EXPECT_EQ(a - b, 80_ns);
  EXPECT_EQ(a * 2, 180_ns);
  EXPECT_EQ((a + b) / 10_ns, 10);
  EXPECT_EQ((a + b) % 30_ns, 10_ns);
  EXPECT_LT(b, a);
}

TEST(Time, InfinityBehaves) {
  EXPECT_TRUE(Time::infinity().is_infinite());
  EXPECT_GT(Time::infinity(), Time::sec(1'000'000));
  EXPECT_EQ(Time::infinity().to_string(), "inf");
}

TEST(Time, ToStringPicksUnits) {
  EXPECT_EQ(Time::ps(500).to_string(), "500 ps");
  EXPECT_NE(Time::ns(100).to_string().find("ns"), std::string::npos);
  EXPECT_NE(Time::us(3).to_string().find("us"), std::string::npos);
  EXPECT_NE(Time::ms(2).to_string().find("ms"), std::string::npos);
}

TEST(DataSize, Conversions) {
  EXPECT_EQ(DataSize::kilobytes(100).in_bytes(), 100'000);
  EXPECT_EQ(DataSize::bytes(562).in_bits(), 4'496);
  EXPECT_EQ(DataSize::megabytes(1), DataSize::kilobytes(1'000));
}

TEST(DataRate, TransmissionTime) {
  // 562 B at 50 Gbps = 89.92 ns.
  const Time t = DataRate::gbps(50).transmission_time(DataSize::bytes(562));
  EXPECT_NEAR(t.to_ns(), 89.92, 0.01);
  // 576 B at 50 Gbps = 92.16 ns (the §2.2 switch interval).
  const Time u = DataRate::gbps(50).transmission_time(DataSize::bytes(576));
  EXPECT_NEAR(u.to_ns(), 92.16, 0.01);
}

TEST(DataRate, BytesInWindowInvertsTransmission) {
  const DataRate r = DataRate::gbps(50);
  const DataSize s = r.bytes_in(Time::ns(90));
  EXPECT_EQ(s.in_bytes(), 562);  // 90 ns * 50 Gbps / 8 = 562.5 -> 562
}

TEST(DataRate, Arithmetic) {
  EXPECT_EQ(DataRate::gbps(50) * 8, DataRate::gbps(400));
  EXPECT_EQ(DataRate::gbps(400) / 24, DataRate::bps(16'666'666'666));
  EXPECT_DOUBLE_EQ(DataRate::tbps(1) / DataRate::gbps(500), 2.0);
}

TEST(Rng, DeterministicPerSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a(), b());
  EXPECT_NE(a(), c());
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(1);
  for (int i = 0; i < 10'000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  Rng r(7);
  constexpr int kBuckets = 10;
  int counts[kBuckets] = {};
  constexpr int kDraws = 100'000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, BetweenCoversRangeInclusive) {
  Rng r(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1'000; ++i) seen.insert(r.between(5, 8));
  EXPECT_EQ(seen, (std::set<std::int64_t>{5, 6, 7, 8}));
}

TEST(Rng, ForkDecorrelates) {
  Rng a(9);
  Rng b = a.fork();
  // Streams should differ immediately.
  EXPECT_NE(a(), b());
}

TEST(Pareto, MeanMatchesConfiguration) {
  ParetoDistribution p(1.5, 100'000.0);  // shape 1.5 has finite variance
  Rng r(11);
  double sum = 0.0;
  constexpr int kDraws = 400'000;
  for (int i = 0; i < kDraws; ++i) sum += p.sample(r);
  EXPECT_NEAR(sum / kDraws, 100'000.0, 5'000.0);
}

TEST(Pareto, ShapeParametersExposed) {
  // The paper's flow-size distribution: shape 1.05, mean 100 KB.
  ParetoDistribution p(1.05, 100'000.0);
  EXPECT_NEAR(p.scale(), 100'000.0 * 0.05 / 1.05, 1.0);
  // Median of Pareto(1.05) is far below the mean: heavy tail.
  EXPECT_LT(p.median(), 10'000.0);
  EXPECT_NEAR(p.median(), p.scale() * std::pow(2.0, 1.0 / 1.05), 1.0);
}

TEST(Pareto, SamplesNeverBelowScale) {
  ParetoDistribution p(1.05, 100'000.0);
  Rng r(5);
  for (int i = 0; i < 10'000; ++i) EXPECT_GE(p.sample(r), p.scale());
}

TEST(Exponential, MeanMatches) {
  ExponentialDistribution e(250.0);
  Rng r(13);
  double sum = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) sum += e.sample(r);
  EXPECT_NEAR(sum / kDraws, 250.0, 5.0);
}

TEST(Normal, MomentsMatch) {
  NormalDistribution n(10.0, 2.0);
  Rng r(17);
  double sum = 0.0, sq = 0.0;
  constexpr int kDraws = 200'000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = n.sample(r);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(sq / kDraws - mean * mean), 2.0, 0.05);
}

TEST(LogNormal, MedianAndTailCalibration) {
  auto d = LogNormalDistribution::from_median_and_tail(250.0, 2.0);
  Rng r(19);
  PercentileTracker t;
  for (int i = 0; i < 200'000; ++i) t.add(d.sample(r));
  EXPECT_NEAR(t.median(), 250.0, 10.0);
  EXPECT_NEAR(t.percentile(99.9), 500.0, 50.0);
}

TEST(PoissonProcess, RateMatches) {
  Rng r(23);
  PoissonProcess p(Time::ns(100), r);
  Time last = Time::zero();
  constexpr int kEvents = 100'000;
  for (int i = 0; i < kEvents; ++i) last = p.next();
  EXPECT_NEAR(last.to_ns() / kEvents, 100.0, 2.0);
}

TEST(PercentileTracker, ExactSmallCases) {
  PercentileTracker t;
  for (double v : {5.0, 1.0, 3.0, 2.0, 4.0}) t.add(v);
  EXPECT_DOUBLE_EQ(t.min(), 1.0);
  EXPECT_DOUBLE_EQ(t.max(), 5.0);
  EXPECT_DOUBLE_EQ(t.median(), 3.0);
  EXPECT_DOUBLE_EQ(t.mean(), 3.0);
  EXPECT_DOUBLE_EQ(t.percentile(75.0), 4.0);
}

TEST(PercentileTracker, InterpolatesBetweenRanks) {
  PercentileTracker t;
  t.add(0.0);
  t.add(10.0);
  EXPECT_DOUBLE_EQ(t.percentile(50.0), 5.0);
  EXPECT_DOUBLE_EQ(t.percentile(99.0), 9.9);
}

TEST(Histogram, CdfMonotone) {
  Histogram h(0.0, 1.0, 10);
  Rng r(29);
  for (int i = 0; i < 10'000; ++i) h.add(r.uniform());
  double prev = 0.0;
  for (std::size_t b = 0; b < h.bins(); ++b) {
    EXPECT_GE(h.cdf_at(b), prev);
    prev = h.cdf_at(b);
  }
  EXPECT_DOUBLE_EQ(h.cdf_at(h.bins() - 1), 1.0);
}

TEST(Histogram, OutOfRangeClamped) {
  Histogram h(0.0, 1.0, 4);
  h.add(-5.0);
  h.add(7.0);
  EXPECT_EQ(h.count_at(0), 1u);
  EXPECT_EQ(h.count_at(3), 1u);
}

TEST(Histogram, PercentileInterpolatesInsideBins) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(static_cast<double>(i));  // 1 per bin
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);     // lower edge of first bin
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);  // upper edge of last bin
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 5.0);
  // Bin-edge interpolation: p=10 consumes exactly the first bin.
  EXPECT_DOUBLE_EQ(h.percentile(10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(5.0), 0.5);
}

TEST(Histogram, PercentileOfClampedSamplesStaysInRange) {
  Histogram h(0.0, 10.0, 10);
  h.add(-100.0);  // clamped into the first bin
  h.add(100.0);   // clamped into the last bin
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 10.0);
  EXPECT_GE(h.percentile(50.0), 0.0);
  EXPECT_LE(h.percentile(50.0), 10.0);
}

TEST(Histogram, PercentileOfEmptyHistogramIsLo) {
  Histogram h(2.0, 8.0, 6);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 2.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 2.0);
}

TEST(Histogram, MergeAccumulatesCounts) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  for (int i = 0; i < 5; ++i) a.add(1.5);
  for (int i = 0; i < 5; ++i) b.add(7.5);
  a.merge(b);
  EXPECT_EQ(a.total(), 10u);
  EXPECT_EQ(a.count_at(1), 5u);
  EXPECT_EQ(a.count_at(7), 5u);
  EXPECT_DOUBLE_EQ(a.percentile(100.0), 8.0);  // upper edge of bin 7
}

TEST(Histogram, MergeGeometryMismatchIsRejected) {
  check::ScopedCollect collect;
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 5);  // different bin count
  a.add(3.0);
  b.add(3.0);
  a.merge(b);
  EXPECT_EQ(collect.violations(), 1);
  EXPECT_EQ(a.total(), 1u);  // merge skipped on the defensive path
}

TEST(PeakTracker, TracksPeakAndMean) {
  PeakTracker p;
  p.observe(1.0);
  p.observe(5.0);
  p.observe(3.0);
  EXPECT_DOUBLE_EQ(p.peak(), 5.0);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);
}

// ---- overflow / divide-by-zero hardening (common/invariant.hpp) ----------
// Each defensive path reports a SIRIUS_INVARIANT violation and saturates;
// the tests run under ScopedCollect so the reports are counted, not fatal.

TEST(TimeHardening, FactoryOverflowSaturates) {
  check::ScopedCollect collect;
  EXPECT_EQ(Time::sec(INT64_MAX / 2), Time::infinity());
  EXPECT_EQ(collect.violations(), 1);
  EXPECT_EQ(Time::ms(INT64_MIN / 4).picoseconds(), INT64_MIN);
  EXPECT_EQ(collect.violations(), 2);
}

TEST(TimeHardening, ArithmeticOverflowSaturates) {
  check::ScopedCollect collect;
  const Time big = Time::ps(INT64_MAX - 10);
  EXPECT_EQ(big + Time::ps(100), Time::infinity());
  EXPECT_EQ(big * 3, Time::infinity());
  EXPECT_EQ(collect.violations(), 2);
}

TEST(TimeHardening, InfinityIsStickyWithoutViolation) {
  check::ScopedCollect collect;
  EXPECT_EQ(Time::infinity() + Time::ns(1), Time::infinity());
  EXPECT_EQ(Time::infinity() - Time::sec(5), Time::infinity());
  EXPECT_EQ(Time::infinity() * 2, Time::infinity());
  EXPECT_EQ(collect.violations(), 0);
}

TEST(TimeHardening, FromDoubleRejectsOutOfRange) {
  check::ScopedCollect collect;
  EXPECT_EQ(Time::from_sec(1e30), Time::infinity());
  EXPECT_EQ(Time::from_ns(std::nan("")), Time::infinity());
  EXPECT_EQ(collect.violations(), 2);
}

TEST(TimeHardening, DivisionByZeroIsDefensive) {
  check::ScopedCollect collect;
  EXPECT_EQ(Time::ns(100) / Time::zero(), 0);
  EXPECT_EQ(Time::ns(100) % Time::zero(), Time::zero());
  EXPECT_EQ(Time::ns(100) / 0, Time::zero());
  EXPECT_EQ(collect.violations(), 3);
}

TEST(DataSizeHardening, OverflowSaturates) {
  check::ScopedCollect collect;
  EXPECT_EQ(DataSize::megabytes(INT64_MAX / 1'000).in_bytes(), INT64_MAX);
  EXPECT_EQ(DataSize::bytes(INT64_MAX).in_bits(), INT64_MAX);
  EXPECT_EQ(DataSize::bytes(INT64_MAX) + DataSize::bytes(1),
            DataSize::bytes(INT64_MAX));
  EXPECT_EQ(DataSize::bytes(INT64_MAX / 2) * 4, DataSize::bytes(INT64_MAX));
  EXPECT_EQ(collect.violations(), 4);
}

TEST(DataRateHardening, ZeroRateSendNeverCompletes) {
  check::ScopedCollect collect;
  EXPECT_EQ(DataRate::zero().transmission_time(DataSize::kilobytes(1)),
            Time::infinity());
  EXPECT_EQ(collect.violations(), 1);
}

TEST(DataRateHardening, HugeSizeAtTinyRateSaturates) {
  check::ScopedCollect collect;
  EXPECT_EQ(DataRate::bps(1).transmission_time(DataSize::bytes(INT64_MAX / 8)),
            Time::infinity());
  EXPECT_GE(collect.violations(), 1);
}

TEST(DataRateHardening, DivisionByZeroIsDefensive) {
  check::ScopedCollect collect;
  EXPECT_EQ(DataRate::gbps(50) / 0, DataRate::zero());
  EXPECT_DOUBLE_EQ(DataRate::gbps(50) / DataRate::zero(), 0.0);
  EXPECT_EQ(collect.violations(), 2);
}

TEST(DataRateHardening, NormalPathsReportNothing) {
  check::ScopedCollect collect;
  EXPECT_EQ(DataRate::gbps(50).transmission_time(DataSize::bytes(562)),
            Time::ps(89'920));
  EXPECT_EQ(DataRate::gbps(50).bytes_in(Time::ns(90)).in_bytes(), 562);
  EXPECT_EQ(collect.violations(), 0);
}

TEST(EnvConfig, ParsesAndDefaults) {
  ::setenv("SIRIUS_TEST_INT", "128", 1);
  ::setenv("SIRIUS_TEST_DBL", "2.5", 1);
  ::setenv("SIRIUS_TEST_BAD", "12abc", 1);
  EXPECT_EQ(env_int_or("SIRIUS_TEST_INT", 1), 128);
  EXPECT_DOUBLE_EQ(env_double_or("SIRIUS_TEST_DBL", 1.0), 2.5);
  EXPECT_EQ(env_int_or("SIRIUS_TEST_BAD", 7), 7);
  EXPECT_EQ(env_int_or("SIRIUS_TEST_MISSING", 9), 9);
}

TEST(EnvConfig, NumbersMustParseInFull) {
  EXPECT_EQ(parse_int("-12"), -12);
  EXPECT_DOUBLE_EQ(parse_double("2e2").value_or(0.0), 200.0);
  for (const char* bad :
       {"", "x8", "2e2", "8 ", "1.5", "99999999999999999999"}) {
    EXPECT_FALSE(parse_int(bad).has_value()) << bad;
  }
  for (const char* bad : {"", "abc", "0.5x", "1e999"}) {
    EXPECT_FALSE(parse_double(bad).has_value()) << bad;
  }
}

// ---- CRC-32 ---------------------------------------------------------------

// Reference CRC-32: one shift per bit, no tables.
std::uint32_t crc32_bitwise(const std::uint8_t* p, std::size_t n) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
  }
  return c ^ 0xffffffffu;
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = static_cast<std::uint8_t>(rng() >> 56);
  return v;
}

TEST(Crc32, CheckValue) {
  EXPECT_EQ(crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(std::string_view()), 0u);
}

using Crc32Fn = std::uint32_t (*)(const void*, std::size_t);

// Lengths 0..300 from offsets 0..15 cover every split between the 64-byte
// fold body, the 16-byte blocks, the eight-byte slice body and the
// bytewise tail, at every alignment; 1 MiB covers a long fold.
void expect_matches_bitwise(Crc32Fn crc) {
  const std::vector<std::uint8_t> buf = random_bytes(300 + 16, 17);
  for (std::size_t off = 0; off < 16; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(crc(buf.data() + off, len),
                crc32_bitwise(buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
  const std::vector<std::uint8_t> big = random_bytes(std::size_t{1} << 20, 23);
  EXPECT_EQ(crc(big.data(), big.size()),
            crc32_bitwise(big.data(), big.size()));
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  expect_matches_bitwise([](const void* p, std::size_t n) {
    return crc32(p, n);
  });
}

TEST(Crc32, SliceBy8MatchesBitwiseReference) {
  expect_matches_bitwise(&crc32_slice8);
}

TEST(Crc32, FoldMatchesBitwiseReference) {
  if (!crc32_fold_available()) {
    GTEST_SKIP() << "this CPU has no PCLMULQDQ; crc32() uses slice-by-8";
  }
  expect_matches_bitwise(&crc32_fold);
}

// ---- crash-safe file helpers ----------------------------------------------

namespace fs = std::filesystem;

// A fresh, empty directory per test, removed on destruction.
struct TempDir {
  explicit TempDir(const char* name)
      : path(fs::temp_directory_path() /
             (std::string("sirius_common_") + name + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path, ignored);
  }
  fs::path path;
};

TEST(AtomicFile, WriteThenReadRoundTrips) {
  const TempDir dir("round_trip");
  const fs::path file = dir.path / "data.bin";
  const std::vector<std::uint8_t> bytes = random_bytes(100'003, 5);
  const std::string contents(bytes.begin(), bytes.end());
  std::string error;
  ASSERT_TRUE(write_file_atomic(file, contents, &error)) << error;
  std::string head;
  std::string back;
  ASSERT_TRUE(read_file(file, 0, &head, &back, &error)) << error;
  EXPECT_TRUE(head.empty());
  EXPECT_EQ(back, contents);
  // A head splits off the first bytes; the rest follows unmoved.
  ASSERT_TRUE(read_file(file, 24, &head, &back, &error)) << error;
  EXPECT_EQ(head, contents.substr(0, 24));
  EXPECT_EQ(back, contents.substr(24));
  // An empty file reads back empty, not as a failure, and a file shorter
  // than the head is all head.
  ASSERT_TRUE(write_file_atomic(file, "", &error)) << error;
  back = "stale";
  ASSERT_TRUE(read_file(file, 0, &head, &back, &error)) << error;
  EXPECT_TRUE(back.empty());
  ASSERT_TRUE(write_file_atomic(file, "short", &error)) << error;
  ASSERT_TRUE(read_file(file, 24, &head, &back, &error)) << error;
  EXPECT_EQ(head, "short");
  EXPECT_TRUE(back.empty());
}

TEST(AtomicFile, OverwriteLeavesNoTempSibling) {
  const TempDir dir("overwrite");
  const fs::path file = dir.path / "state.ckpt";
  std::string error;
  ASSERT_TRUE(write_file_atomic(file, "first version, longer", &error));
  ASSERT_TRUE(write_file_atomic(file, "second", &error)) << error;
  std::string head;
  std::string back;
  ASSERT_TRUE(read_file(file, 0, &head, &back, &error)) << error;
  EXPECT_EQ(back, "second");
  std::vector<fs::path> entries;
  for (const auto& e : fs::directory_iterator(dir.path)) {
    entries.push_back(e.path().filename());
  }
  EXPECT_EQ(entries, std::vector<fs::path>{"state.ckpt"});
}

TEST(AtomicFile, FailuresNameThePath) {
  const TempDir dir("failures");
  std::string error;
  std::string head;
  std::string out = "untouched";
  const fs::path missing = dir.path / "missing.bin";
  EXPECT_FALSE(read_file(missing, 0, &head, &out, &error));
  EXPECT_NE(error.find(missing.string()), std::string::npos) << error;
  EXPECT_EQ(out, "untouched");

  // A directory is not a file to read.
  error.clear();
  EXPECT_FALSE(read_file(dir.path, 0, &head, &out, &error));
  EXPECT_NE(error.find(dir.path.string()), std::string::npos) << error;

  // Unwritable destinations, whatever the caller's privileges: a parent
  // that does not exist, and a parent that is a regular file.
  const fs::path no_dir = dir.path / "no_such_dir" / "out.bin";
  error.clear();
  EXPECT_FALSE(write_file_atomic(no_dir, "x", &error));
  EXPECT_NE(error.find(no_dir.string()), std::string::npos) << error;
  const fs::path plain = dir.path / "plain";
  ASSERT_TRUE(write_file_atomic(plain, "x", &error)) << error;
  const fs::path under_file = plain / "out.bin";
  error.clear();
  EXPECT_FALSE(write_file_atomic(under_file, "x", &error));
  EXPECT_NE(error.find(under_file.string()), std::string::npos) << error;
  EXPECT_FALSE(fs::exists(dir.path / "no_such_dir"));
}

}  // namespace
}  // namespace sirius
