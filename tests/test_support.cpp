// Unit tests for the support layer: time, amounts, RNG, hashing, the byte
// codec, tables.

#include <gtest/gtest.h>

#include <functional>
#include <set>
#include <string>
#include <vector>

#include "support/amount.hpp"
#include "support/bytes.hpp"
#include "support/hash.hpp"
#include "support/index_set.hpp"
#include "support/rng.hpp"
#include "support/status.hpp"
#include "support/table.hpp"
#include "support/time.hpp"

namespace xcp {
namespace {

// ----------------------------------------------------------------- Duration

TEST(Duration, ConstructionAndConversion) {
  EXPECT_EQ(Duration::seconds(2).count(), 2'000'000);
  EXPECT_EQ(Duration::millis(3).count(), 3'000);
  EXPECT_EQ(Duration::micros(7).count(), 7);
  EXPECT_DOUBLE_EQ(Duration::millis(1500).to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(Duration::micros(2500).to_millis(), 2.5);
}

TEST(Duration, Arithmetic) {
  const Duration a = Duration::millis(100);
  const Duration b = Duration::millis(40);
  EXPECT_EQ((a + b).count(), 140'000);
  EXPECT_EQ((a - b).count(), 60'000);
  EXPECT_EQ((a * 3).count(), 300'000);
  EXPECT_EQ((3 * a).count(), 300'000);
  EXPECT_EQ((a / 2).count(), 50'000);
  EXPECT_EQ((-b).count(), -40'000);
  EXPECT_LT(b, a);
}

TEST(Duration, ScaledUpRoundsUp) {
  // Deadline inflation must never round a bound downwards.
  const Duration d = Duration::micros(1000);
  EXPECT_EQ(d.scaled_up(1.0).count(), 1000);
  EXPECT_EQ(d.scaled_up(1.001).count(), 1001);
  EXPECT_EQ(d.scaled_up(1.0001).count(), 1001);  // ceil(1000.1)
  EXPECT_EQ(d.scaled_down(1.0001).count(), 1000);
}

TEST(Duration, StrPicksNaturalUnit) {
  EXPECT_EQ(Duration::seconds(3).str(), "3s");
  EXPECT_EQ(Duration::millis(30).str(), "30ms");
  EXPECT_EQ(Duration::micros(5).str(), "5us");
}

TEST(TimePoint, ArithmeticWithDurations) {
  const TimePoint t = TimePoint::origin() + Duration::seconds(5);
  EXPECT_EQ(t.count(), 5'000'000);
  EXPECT_EQ((t - Duration::seconds(2)).count(), 3'000'000);
  EXPECT_EQ((t - TimePoint::origin()).count(), 5'000'000);
  EXPECT_LT(TimePoint::origin(), t);
}

// ------------------------------------------------------------------- Amount

TEST(Amount, SameCurrencyArithmetic) {
  const Amount a(100, Currency::usd());
  const Amount b(40, Currency::usd());
  EXPECT_EQ((a + b).units(), 140);
  EXPECT_EQ((a - b).units(), 60);
  EXPECT_TRUE(b.less_than(a));
  EXPECT_EQ((-a).units(), -100);
}

TEST(Amount, CrossCurrencyArithmeticThrows) {
  const Amount usd(100, Currency::usd());
  const Amount eur(100, Currency::eur());
  EXPECT_THROW(usd + eur, AmountError);
  EXPECT_THROW(usd - eur, AmountError);
  EXPECT_THROW(usd.less_than(eur), AmountError);
  EXPECT_FALSE(usd == eur);  // equality is defined and false
}

TEST(Amount, OverflowDetected) {
  const Amount big(std::numeric_limits<std::int64_t>::max(), Currency::usd());
  const Amount one(1, Currency::usd());
  EXPECT_THROW(big + one, AmountError);
  const Amount small(std::numeric_limits<std::int64_t>::min(), Currency::usd());
  EXPECT_THROW(small - one, AmountError);
}

TEST(Amount, Formatting) {
  EXPECT_EQ(Amount(5, Currency::btc()).str(), "5 BTC");
  EXPECT_EQ(Currency::usd().code(), "USD");
  EXPECT_EQ(Currency(77).code(), "CUR77");
}

// ---------------------------------------------------------------------- Rng

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowInRangeAndCoversValues) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit over 1000 draws
}

TEST(Rng, NextIntInclusiveBounds) {
  Rng rng(9);
  bool lo_hit = false;
  bool hi_hit = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    lo_hit = lo_hit || v == -3;
    hi_hit = hi_hit || v == 3;
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int heads = 0;
  const int trials = 10000;
  for (int i = 0; i < trials; ++i) heads += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.3, 0.03);
}

TEST(Rng, ForkIndependence) {
  Rng parent(5);
  Rng child = parent.fork();
  // The child stream should not replay the parent stream.
  Rng parent2(5);
  (void)parent2.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (child.next_u64() == parent.next_u64());
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextDurationWithinBounds) {
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Duration d = rng.next_duration(Duration::millis(1), Duration::millis(5));
    EXPECT_GE(d, Duration::millis(1));
    EXPECT_LE(d, Duration::millis(5));
  }
}

// --------------------------------------------------------------------- Hash

TEST(Hash, Fnv1aKnownProperties) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
  EXPECT_EQ(fnv1a64("xcp"), fnv1a64("xcp"));
}

TEST(Hash, HashWriterOrderSensitive) {
  HashWriter a;
  a.write_u64(1);
  a.write_u64(2);
  HashWriter b;
  b.write_u64(2);
  b.write_u64(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, HashWriterStringFraming) {
  // "ab" + "c" must differ from "a" + "bc" (length prefixes prevent
  // concatenation ambiguity).
  HashWriter a;
  a.write_str("ab");
  a.write_str("c");
  HashWriter b;
  b.write_str("a");
  b.write_str("bc");
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Hash, HashWriterStreamsFnv1aOverTheCanonicalBytes) {
  // The writer never buffers, but its digest is FNV-1a over exactly the
  // little-endian, length-prefixed byte string the fields encode to.
  HashWriter w;
  w.write_str("ab");
  w.write_u32(0x01020304u);
  w.write_u64(0x1122334455667788ULL);
  w.write_i64(-1);
  const std::string bytes =
      std::string("\x02\0\0\0\0\0\0\0ab", 10) +
      std::string("\x04\x03\x02\x01", 4) +
      std::string("\x88\x77\x66\x55\x44\x33\x22\x11", 8) +
      std::string(8, '\xff');
  EXPECT_EQ(w.digest(), fnv1a64(bytes));
  EXPECT_EQ(HashWriter().digest(), fnv1a64(""));
}

// ----------------------------------------------------------------- IndexSet

// ---------------------------------------------------------------- ByteCodec

using support::ByteError;
using support::ByteReader;
using support::ByteWriter;

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const ByteError& e) {
    return std::string(e.what()) + " @" + std::to_string(e.offset());
  }
  return "no error";
}

TEST(ByteCodec, PrimitivesAreLittleEndianAndRoundTrip) {
  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  w.header(0x41424344u, 3);
  w.u8(0xab);
  w.u16(0x0102);
  w.u32(0x03040506u);
  w.u64(0x0708090a0b0c0d0eull);
  w.i32(-2);
  w.i64(-3);
  w.str("hi", 8, "greeting");
  w.u16(7);
  const std::size_t len_at = w.size();
  w.u32(0);
  w.u8(1);
  w.patch_u32(len_at, 1);
  const std::vector<std::uint8_t> want = {
      0x44, 0x43, 0x42, 0x41, 3, 0, 0, 0,            // header
      0xab, 0x02, 0x01, 0x06, 0x05, 0x04, 0x03,      // u8 u16 u32
      0x0e, 0x0d, 0x0c, 0x0b, 0x0a, 0x09, 0x08, 0x07,  // u64
      0xfe, 0xff, 0xff, 0xff,                        // i32 -2
      0xfd, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,  // i64 -3
      2, 0, 'h', 'i',                                // str
      7, 0, 1, 0, 0, 0, 1};                          // frame
  EXPECT_EQ(out, want);

  ByteReader r(out.data(), out.size(), "test");
  EXPECT_EQ(r.header(0x41424344u, 1, 3), 3);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0x0102);
  EXPECT_EQ(r.u32(), 0x03040506u);
  EXPECT_EQ(r.u64(), 0x0708090a0b0c0d0eull);
  EXPECT_EQ(r.i32(), -2);
  EXPECT_EQ(r.i64(), -3);
  EXPECT_EQ(r.str(8, "greeting"), "hi");
  EXPECT_EQ(r.u16(), 7);
  ByteReader f = r.sub(r.u32(), "frame");
  EXPECT_TRUE(f.flag("one"));
  f.expect_consumed();
  r.expect_consumed();
}

TEST(ByteCodec, EveryRejectionNamesContextAndAbsoluteOffset) {
  const std::vector<std::uint8_t> b = {0x44, 0x43, 0x42, 0x41, 3, 0, 0, 0,
                                       2,    5,    9,    0};
  const auto read = [&](const std::function<void(ByteReader&)>& f) {
    return error_of([&] {
      ByteReader r(b.data(), b.size(), "ctx");
      f(r);
    });
  };
  EXPECT_EQ(read([](ByteReader& r) { r.header(0x41424345u, 1, 3); }),
            "ctx: bad magic 0x41424344 at offset 0 @0");
  EXPECT_EQ(read([](ByteReader& r) { r.header(0x41424344u, 1, 2); }),
            "ctx: unsupported version 3 (this build speaks 1..2) at offset 4 @4");
  EXPECT_EQ(read([](ByteReader& r) {
              r.header(0x41424344u, 1, 3);
              ByteReader f = r.sub(2, "inner");
              (void)f.u8();
              (void)f.flag("mode");
            }),
            "inner: mode flag byte 5 is not 0/1 at offset 9 @9");
  EXPECT_EQ(read([](ByteReader& r) {
              r.header(0x41424344u, 1, 3);
              (void)r.str(1, "name");
            }),
            "ctx: name length 1282 exceeds cap 1 at offset 8 @8");
  EXPECT_EQ(read([](ByteReader& r) {
              r.header(0x41424344u, 1, 3);
              (void)r.u64();
            }),
            "ctx: truncated: need 8 byte(s), 4 left at offset 8 @8");
  EXPECT_EQ(read([](ByteReader& r) {
              r.header(0x41424344u, 1, 3);
              r.expect_consumed();
            }),
            "ctx: 4 trailing byte(s) at offset 8 @8");
  std::vector<std::uint8_t> flagged = b;
  flagged[6] = 1;
  EXPECT_EQ(error_of([&] {
              ByteReader r(flagged.data(), flagged.size(), "ctx");
              r.header(0x41424344u, 1, 3);
            }),
            "ctx: nonzero flags 1 at offset 6 @6");

  std::vector<std::uint8_t> out;
  ByteWriter w(out);
  EXPECT_EQ(error_of([&] { w.str("abc", 2, "name"); }),
            "cannot serialize name: 3 bytes exceeds cap 2 @0");
}

TEST(ByteCodec, WriterAppendsWithoutClearing) {
  std::vector<std::uint8_t> out = {9};
  ByteWriter w(out);
  w.u16(1);
  EXPECT_EQ(out, (std::vector<std::uint8_t>{9, 1, 0}));
}

TEST(IndexSet, AddReportsNewMembersInlineAndSpilled) {
  IndexSet s(64);
  EXPECT_TRUE(s.add(0));
  EXPECT_TRUE(s.add(63));
  EXPECT_FALSE(s.add(0));
  EXPECT_EQ(s.size(), 2u);
  EXPECT_THROW(s.add(64), std::logic_error);

  // Past kInlineIndices the bitmap lives on the heap; behaviour is the same.
  const std::size_t n = IndexSet::kInlineIndices * 2 + 3;
  s.reset(n);
  EXPECT_EQ(s.size(), 0u);
  for (std::size_t i = 0; i < n; i += 3) EXPECT_TRUE(s.add(i));
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(s.add(i), i % 3 != 0);
  EXPECT_EQ(s.size(), n);
  EXPECT_THROW(s.add(n), std::logic_error);

  s.reset(8);  // back to the inline words, emptied
  EXPECT_TRUE(s.add(0));
  EXPECT_EQ(s.size(), 1u);
}

// ------------------------------------------------------------------- Status

TEST(Status, OkAndError) {
  EXPECT_TRUE(Status::ok().is_ok());
  const Status e = Status::error("boom");
  EXPECT_FALSE(e.is_ok());
  EXPECT_EQ(e.message(), "boom");
  EXPECT_THROW(e.expect("ctx"), std::runtime_error);
  EXPECT_NO_THROW(Status::ok().expect("ctx"));
}

TEST(Status, RequireMacroThrowsWithMessage) {
  EXPECT_THROW(
      [] { XCP_REQUIRE(1 == 2, "math broke"); }(), std::logic_error);
}

// -------------------------------------------------------------------- Table

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name   | value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
}

TEST(Table, CsvQuotesSpecials) {
  Table t({"x"});
  t.add_row({"a,b"});
  t.add_row({"q\"uote"});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"a,b\""), std::string::npos);
  EXPECT_NE(csv.find("\"q\"\"uote\""), std::string::npos);
}

TEST(Table, ArityMismatchRejected) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(1.23456, 2), "1.23");
  EXPECT_EQ(Table::fmt(static_cast<std::int64_t>(-5)), "-5");
  EXPECT_EQ(Table::fmt(true), "yes");
  EXPECT_EQ(Table::pct(0.1234, 1), "12.3%");
}

}  // namespace
}  // namespace xcp
