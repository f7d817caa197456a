// Known-answer and behavioural tests for the hashing module.
#include <gtest/gtest.h>

#include "hashing/drbg.h"
#include "hashing/hmac.h"
#include "hashing/kdf.h"
#include "hashing/sha256.h"

namespace tre::hashing {
namespace {

// --- SHA-256 NIST / FIPS 180-4 known answers -------------------------------

TEST(Sha256, EmptyString) {
  EXPECT_EQ(to_hex(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionA) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  auto d = h.finalize();
  EXPECT_EQ(to_hex(d),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  Bytes msg = to_bytes("the quick brown fox jumps over the lazy dog");
  for (size_t split = 0; split <= msg.size(); ++split) {
    Sha256 h;
    h.update(ByteSpan(msg.data(), split));
    h.update(ByteSpan(msg.data() + split, msg.size() - split));
    auto d = h.finalize();
    EXPECT_EQ(Bytes(d.begin(), d.end()), sha256(msg)) << "split=" << split;
  }
}

// An empty span arriving after a partial block (its data() is null) must
// leave the state alone; before the early return it reached memcpy with a
// null source, which UBSan reports.
TEST(Sha256, EmptySpanMidBlockIsANoOp) {
  Sha256 h;
  h.update(to_bytes("ab"));
  h.update(ByteSpan{});
  h.update(to_bytes("c"));
  h.update(ByteSpan{});
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, ResetReusesObject) {
  Sha256 h;
  h.update(to_bytes("garbage"));
  h.reset();
  h.update(to_bytes("abc"));
  EXPECT_EQ(to_hex(h.finalize()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

// Boundary lengths around the 64-byte block / 56-byte padding threshold.
TEST(Sha256, PaddingBoundaries) {
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    Bytes msg(len, 0x41);
    Bytes once = sha256(msg);
    Sha256 h;
    for (size_t i = 0; i < len; ++i) h.update(ByteSpan(&msg[i], 1));
    auto d = h.finalize();
    EXPECT_EQ(Bytes(d.begin(), d.end()), once) << "len=" << len;
  }
}

// --- HMAC-SHA256 (RFC 4231) -------------------------------------------------

TEST(Hmac, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(to_hex(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(to_hex(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231Case6LongKey) {
  Bytes key(131, 0xaa);
  EXPECT_EQ(to_hex(hmac_sha256(
                key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, ConcatMatchesFlat) {
  Bytes key = to_bytes("k");
  Bytes a = to_bytes("hello ");
  Bytes b = to_bytes("world");
  EXPECT_EQ(hmac_sha256_concat(key, {a, b}), hmac_sha256(key, to_bytes("hello world")));
}

// --- HKDF (RFC 5869) ---------------------------------------------------------

TEST(Hkdf, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  Bytes salt = from_hex("000102030405060708090a0b0c");
  Bytes info = from_hex("f0f1f2f3f4f5f6f7f8f9");
  EXPECT_EQ(to_hex(hkdf_sha256(salt, ikm, info, 42)),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(Hkdf, Rfc5869Case3EmptySaltInfo) {
  Bytes ikm(22, 0x0b);
  EXPECT_EQ(to_hex(hkdf_sha256({}, ikm, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

TEST(Hkdf, OutputLengthExact) {
  for (size_t n : {1u, 31u, 32u, 33u, 64u, 255u}) {
    EXPECT_EQ(hkdf_sha256({}, to_bytes("ikm"), {}, n).size(), n);
  }
}

// --- Oracle bytes / keystream -----------------------------------------------

TEST(OracleBytes, DomainSeparation) {
  Bytes in = to_bytes("input");
  EXPECT_NE(oracle_bytes("TRE-H2", in, 32), oracle_bytes("TRE-H3", in, 32));
}

TEST(OracleBytes, DeterministicAndPrefixFree) {
  Bytes in = to_bytes("input");
  Bytes a = oracle_bytes("TRE-H2", in, 16);
  Bytes b = oracle_bytes("TRE-H2", in, 32);
  EXPECT_EQ(a, Bytes(b.begin(), b.begin() + 16));
  EXPECT_EQ(b, oracle_bytes("TRE-H2", in, 32));
}

TEST(OracleBytes, LongOutput) {
  // Exceeds the 255-block HKDF cap; falls to the counter stream.
  Bytes out = oracle_bytes("TRE-H2", to_bytes("x"), 10000);
  EXPECT_EQ(out.size(), 10000u);
  // Not all-zero, and later blocks differ from early ones.
  EXPECT_NE(Bytes(out.begin(), out.begin() + 32), Bytes(out.end() - 32, out.end()));
}

TEST(Keystream, DependsOnKeyAndNonce) {
  Bytes k1 = to_bytes("key1"), k2 = to_bytes("key2"), n = to_bytes("n");
  EXPECT_NE(keystream(k1, n, 64), keystream(k2, n, 64));
  EXPECT_NE(keystream(k1, n, 64), keystream(k1, to_bytes("m"), 64));
  EXPECT_EQ(keystream(k1, n, 64), keystream(k1, n, 64));
}

// --- HMAC-DRBG ----------------------------------------------------------------

TEST(Drbg, DeterministicPerSeed) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  EXPECT_EQ(a.bytes(48), b.bytes(48));
  EXPECT_EQ(a.bytes(7), b.bytes(7));
}

TEST(Drbg, DifferentSeedsDiverge) {
  HmacDrbg a(to_bytes("seed-a"));
  HmacDrbg b(to_bytes("seed-b"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(Drbg, StreamAdvances) {
  HmacDrbg a(to_bytes("seed"));
  Bytes first = a.bytes(32);
  Bytes second = a.bytes(32);
  EXPECT_NE(first, second);
}

TEST(Drbg, ReseedChangesStream) {
  HmacDrbg a(to_bytes("seed"));
  HmacDrbg b(to_bytes("seed"));
  (void)a.bytes(16);
  (void)b.bytes(16);
  b.reseed(to_bytes("extra"));
  EXPECT_NE(a.bytes(32), b.bytes(32));
}

TEST(SystemRandom, ProducesDistinctOutput) {
  SystemRandom r;
  Bytes a = r.bytes(32);
  Bytes b = r.bytes(32);
  EXPECT_NE(a, b);
  EXPECT_NE(a, Bytes(32, 0));
}

}  // namespace
}  // namespace tre::hashing
