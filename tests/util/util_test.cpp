#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"
#include "util/snapshot.hpp"
#include "util/stopwatch.hpp"
#include "util/table.hpp"

namespace advbist::util {
namespace {

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(ADVBIST_REQUIRE(false, "boom"), std::invalid_argument);
  EXPECT_NO_THROW(ADVBIST_REQUIRE(true, "fine"));
}

TEST(Check, EnsureThrowsLogicError) {
  EXPECT_THROW(ADVBIST_ENSURE(false, "boom"), std::logic_error);
  EXPECT_NO_THROW(ADVBIST_ENSURE(true, "fine"));
}

TEST(Check, MessageContainsExpressionAndNote) {
  try {
    ADVBIST_REQUIRE(1 == 2, "one is not two");
    FAIL() << "should have thrown";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("1 == 2"), std::string::npos);
    EXPECT_NE(msg.find("one is not two"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 4);
}

TEST(Rng, IntRangeInclusive) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.next_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all values hit
}

TEST(Rng, IntEmptyRangeThrows) {
  Rng rng;
  EXPECT_THROW(rng.next_int(5, 4), std::invalid_argument);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Stopwatch, MeasuresNonNegative) {
  Stopwatch sw;
  EXPECT_GE(sw.seconds(), 0.0);
  sw.reset();
  EXPECT_GE(sw.seconds(), 0.0);
}

TEST(FormatDuration, PaperStyle) {
  EXPECT_EQ(format_duration(58.0), "58s");
  EXPECT_EQ(format_duration(82.0), "1m 22s");
  EXPECT_EQ(format_duration(4.0 * 3600 + 42 * 60), "4h 42m 0s");
  EXPECT_EQ(format_duration(24.0 * 3600), "24h 0m 0s");
  EXPECT_EQ(format_duration(0.42), "0.42s");
}

TEST(TextTable, AlignsColumns) {
  TextTable t;
  t.add_row({"Ckt", "Area"});
  t.add_row({"tseng", "2152"});
  t.add_row({"fir6", "3040"});
  const std::string out = t.render();
  EXPECT_NE(out.find("Ckt"), std::string::npos);
  EXPECT_NE(out.find("tseng  2152"), std::string::npos);
  EXPECT_NE(out.find("fir6   3040"), std::string::npos);
}

TEST(TextTable, SeparatorRenders) {
  TextTable t;
  t.add_row({"a"});
  t.add_separator();
  t.add_row({"b"});
  EXPECT_NE(t.render().find('-'), std::string::npos);
}

TEST(FormatFixed, Digits) {
  EXPECT_EQ(format_fixed(25.714, 1), "25.7");
  EXPECT_EQ(format_fixed(11.25, 1), "11.2");  // round-to-even via printf
  EXPECT_EQ(format_fixed(3.0, 0), "3");
}

TEST(Snapshot, WriterReaderRoundTrip) {
  SnapshotWriter w;
  w.put_u8(7);
  w.put_u32(123456);
  w.put_u64(0xdeadbeefcafef00dULL);
  w.put_i64(-42);
  w.put_f64(3.25);
  w.put_doubles({1.0, -2.5, 1e300});
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  std::vector<double> d;
  r.doubles(d);
  EXPECT_EQ(d, (std::vector<double>{1.0, -2.5, 1e300}));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Snapshot, ReaderFailsStickyOnShortBuffer) {
  SnapshotWriter w;
  w.put_u32(5);
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_EQ(r.u64(), 0u);  // past the end: zero, not garbage
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u8(), 0);  // failure is sticky
}

TEST(Snapshot, CountRefusesFuzzLengths) {
  SnapshotWriter w;
  w.put_u64(1u << 30);  // claims a billion 20-byte elements
  SnapshotReader r(w.bytes());
  EXPECT_EQ(r.count(20), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Snapshot, FileRoundTripAndFrameChecks) {
  const std::string path = testing::TempDir() + "snap_util.bin";
  const std::vector<unsigned char> payload = {1, 2, 3, 4, 5};
  ASSERT_TRUE(save_snapshot_file(path, 9, payload));
  const auto back = load_snapshot_file(path, 9);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, payload);
  EXPECT_FALSE(load_snapshot_file(path, 8).has_value());  // wrong version
  EXPECT_FALSE(load_snapshot_file(path + ".missing", 9).has_value());
  std::remove(path.c_str());
}

TEST(Snapshot, AtomicWriteReplacesWholeAndFailsClean) {
  const std::string path = testing::TempDir() + "atomic_util.txt";
  const auto read_all = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  ASSERT_TRUE(write_file_atomic(path, "a much longer first version\n"));
  ASSERT_TRUE(write_file_atomic(path, "short\n"));
  EXPECT_EQ(read_all(path), "short\n");  // replaced whole, no old tail

  const std::string missing =
      testing::TempDir() + "no_such_dir_atomic/file.txt";
  EXPECT_FALSE(write_file_atomic(missing, "x"));
  EXPECT_FALSE(std::filesystem::exists(missing));
  EXPECT_FALSE(std::filesystem::exists(missing + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace advbist::util
