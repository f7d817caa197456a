// Unit tests for common byte utilities.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/wire.h"

namespace tre {
namespace {

TEST(Bytes, HexRoundtrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff, 0x7e};
  EXPECT_EQ(to_hex(data), "0001abff7e");
  EXPECT_EQ(from_hex("0001abff7e"), data);
  EXPECT_EQ(from_hex("0001ABFF7E"), data);
}

TEST(Bytes, HexEmpty) {
  EXPECT_EQ(to_hex({}), "");
  EXPECT_TRUE(from_hex("").empty());
}

TEST(Bytes, HexRejectsMalformed) {
  EXPECT_THROW(from_hex("abc"), Error);   // odd length
  EXPECT_THROW(from_hex("zz"), Error);    // non-hex
}

TEST(Bytes, Concat) {
  Bytes a = {1, 2};
  Bytes b = {};
  Bytes c = {3};
  EXPECT_EQ(concat({a, b, c}), (Bytes{1, 2, 3}));
}

TEST(Bytes, XorInvolution) {
  Bytes a = from_hex("00ff8811");
  Bytes k = from_hex("a5a5a5a5");
  EXPECT_EQ(xor_bytes(xor_bytes(a, k), k), a);
}

TEST(Bytes, XorSizeMismatchThrows) {
  EXPECT_THROW(xor_bytes(Bytes{1}, Bytes{1, 2}), Error);
}

TEST(Bytes, CtEqual) {
  EXPECT_TRUE(ct_equal(from_hex("aabb"), from_hex("aabb")));
  EXPECT_FALSE(ct_equal(from_hex("aabb"), from_hex("aabc")));
  EXPECT_FALSE(ct_equal(from_hex("aabb"), from_hex("aa")));
  EXPECT_TRUE(ct_equal({}, {}));
}

TEST(Bytes, SecureWipe) {
  Bytes secret = {1, 2, 3, 4};
  secure_wipe(secret);
  EXPECT_EQ(secret, (Bytes{0, 0, 0, 0}));
}

TEST(Bytes, BigEndianCounters) {
  EXPECT_EQ(to_hex(be32(0x01020304)), "01020304");
  EXPECT_EQ(to_hex(be64(0x0102030405060708ull)), "0102030405060708");
  EXPECT_EQ(to_hex(be64(1)), "0000000000000001");
}

TEST(Bytes, ToBytesFromString) {
  EXPECT_EQ(to_bytes("AB"), (Bytes{0x41, 0x42}));
  EXPECT_TRUE(to_bytes("").empty());
}

TEST(Wire, WriterIsBigEndianAndRejectsOversizedFields) {
  Bytes out = wire::Writer()
                  .u8(0x01)
                  .u16(0x0203)
                  .u32(0x04050607)
                  .u64(0x08090a0b0c0d0e0full)
                  .bytes16(std::string_view("ab"))
                  .bytes32(Bytes{0xff})
                  .take();
  EXPECT_EQ(to_hex(out), "010203040506070809" "0a0b0c0d0e0f" "00026162" "00000001ff");
  EXPECT_THROW(wire::Writer().u8(0x100), Error);
  EXPECT_THROW(wire::Writer().u16(0x10000), Error);
  EXPECT_THROW(wire::Writer().u32(0x100000000ull), Error);
  EXPECT_THROW(wire::Writer().bytes16(Bytes(0x10000)), Error);
}

TEST(Wire, ReaderLatchesOverrunAndFinishNeedsExactConsumption) {
  const Bytes in = {0x00, 0x02, 0x61, 0x62, 0x07};
  wire::Reader exact(in);
  EXPECT_EQ(exact.str16(), "ab");
  EXPECT_FALSE(exact.finish());  // one byte left: trailing
  EXPECT_EQ(exact.u8(), 0x07);
  EXPECT_TRUE(exact.finish());

  // An overrun returns zero / empty and stays failed, even for reads that
  // would fit what is left.
  wire::Reader over(in);
  EXPECT_TRUE(over.raw(6).empty());
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.u8(), 0);
  EXPECT_TRUE(over.rest().empty());
  EXPECT_EQ(over.remaining(), 0u);
  EXPECT_FALSE(over.finish());

  // A length prefix that claims more than remains fails the read.
  const Bytes short_field = {0x00, 0x05, 0x61};
  wire::Reader lying(short_field);
  EXPECT_TRUE(lying.bytes16().empty());
  EXPECT_FALSE(lying.ok());
}

TEST(Wire, TryParseTurnsErrorIntoNullopt) {
  struct Parsed {
    static Parsed from_bytes(ByteSpan b) {
      require(!b.empty(), "empty");
      return Parsed{b[0]};
    }
    std::uint8_t first;
  };
  EXPECT_FALSE(wire::try_parse<Parsed>(Bytes{}).has_value());
  EXPECT_EQ(wire::try_parse<Parsed>(Bytes{0x2a})->first, 0x2a);
}

}  // namespace
}  // namespace tre
