// Adversarial wire-format tests: every public deserializer is fed
// systematically truncated, extended and bit-flipped images of valid
// encodings. The contract: parsing either throws tre::Error or yields an
// object that fails cryptographic verification — never a crash, never a
// silently-accepted forgery of a *verifying* artifact.
#include <gtest/gtest.h>

#include "baselines/hybrid.h"
#include "cli_common.h"
#include "core/multiserver.h"
#include "core/policylock.h"
#include "core/tre.h"
#include "daemon/frame.h"
#include "hashing/drbg.h"
#include "idtre/idtre.h"
#include "keystore/keystore.h"
#include "threshold/dkg.h"
#include "timelock/hybrid.h"
#include "timelock/solver.h"
#include "timeserver/hierarchical.h"

namespace tre::core {
namespace {

class WireRobustness : public ::testing::Test {
 protected:
  WireRobustness()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("wire-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  struct ToBytes {
    template <typename T>
    Bytes operator()(const T& value) const {
      return value.to_bytes();
    }
  };

  // `wire` must parse and re-encode to itself (one encoding per value),
  // and every truncation of it must throw (a shorter valid encoding
  // would be a framing ambiguity), as must `wire` plus a trailing byte.
  template <typename ParseFn, typename EncodeFn = ToBytes>
  void expect_truncations_throw(const Bytes& wire, ParseFn parse, EncodeFn encode = {}) {
    EXPECT_EQ(to_hex(encode(parse(wire))), to_hex(wire)) << "re-encoding differs";
    for (size_t len = 0; len < wire.size(); ++len) {
      ByteSpan cut(wire.data(), len);
      EXPECT_THROW((void)parse(cut), Error) << "accepted truncation to " << len;
    }
    Bytes extended = wire;
    extended.push_back(0x00);
    EXPECT_THROW((void)parse(extended), Error) << "accepted trailing byte";
  }

  // Flips each bit of `wire` and parses; throwing is fine, returning is
  // fine too — the caller then checks semantic rejection.
  template <typename ParseFn, typename AcceptFn>
  void flip_bits(const Bytes& wire, ParseFn parse, AcceptFn on_parsed) {
    for (size_t bit = 0; bit < wire.size() * 8; ++bit) {
      Bytes mutated = wire;
      mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      try {
        on_parsed(parse(mutated), bit);
      } catch (const Error&) {
        // rejected at parse time: acceptable
      }
    }
  }

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair server_;
  UserKeyPair user_;
};

TEST_F(WireRobustness, KeyUpdateTruncationAndFlips) {
  KeyUpdate upd = scheme_.issue_update(server_, "2030-01-01");
  Bytes wire = upd.to_bytes();
  auto parse = [&](ByteSpan b) { return KeyUpdate::from_bytes(scheme_.params(), b); };
  expect_truncations_throw(wire, parse);
  // Any surviving single-bit mutation must fail self-authentication.
  flip_bits(wire, parse, [&](const KeyUpdate& parsed, size_t bit) {
    EXPECT_FALSE(scheme_.verify_update(server_.pub, parsed))
        << "bit " << bit << " produced a verifying forgery";
  });
}

TEST_F(WireRobustness, ServerPublicKeyTruncations) {
  Bytes wire = server_.pub.to_bytes();
  expect_truncations_throw(
      wire, [&](ByteSpan b) { return ServerPublicKey::from_bytes(scheme_.params(), b); });
}

TEST_F(WireRobustness, UserPublicKeyFlipsNeverVerify) {
  Bytes wire = user_.pub.to_bytes();
  auto parse = [&](ByteSpan b) { return UserPublicKey::from_bytes(scheme_.params(), b); };
  expect_truncations_throw(wire, parse);
  flip_bits(wire, parse, [&](const UserPublicKey& parsed, size_t bit) {
    // A mutated key must no longer verify as bound to this server
    // (unless the mutation was rejected already).
    EXPECT_FALSE(scheme_.verify_user_public_key(server_.pub, parsed))
        << "bit " << bit;
  });
}

TEST_F(WireRobustness, BasicCiphertextTruncations) {
  Ciphertext ct = std::get<Ciphertext>(scheme_.seal(Mode::kBasic, to_bytes("msg"),
                                                    user_.pub, server_.pub, "T",
                                                    rng_).body);
  expect_truncations_throw(
      ct.to_bytes(), [&](ByteSpan b) { return Ciphertext::from_bytes(scheme_.params(), b); });
}

TEST_F(WireRobustness, FoCiphertextFlipsNeverDecrypt) {
  Bytes msg = to_bytes("integrity matters");
  FoCiphertext ct = std::get<FoCiphertext>(
      scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", rng_).body);
  KeyUpdate upd = scheme_.issue_update(server_, "T");
  Bytes wire = ct.to_bytes();
  auto parse = [&](ByteSpan b) { return FoCiphertext::from_bytes(scheme_.params(), b); };
  expect_truncations_throw(wire, parse);
  flip_bits(wire, parse, [&](const FoCiphertext& parsed, size_t bit) {
    auto out = scheme_.open(SealedCiphertext{parsed}, user_.a, upd, server_.pub);
    EXPECT_FALSE(out.has_value()) << "bit " << bit << " survived the FO check";
  });
}

TEST_F(WireRobustness, ReactCiphertextFlipsNeverDecrypt) {
  Bytes msg = to_bytes("integrity matters");
  ReactCiphertext ct = std::get<ReactCiphertext>(
      scheme_.seal(Mode::kReact, msg, user_.pub, server_.pub, "T", rng_).body);
  KeyUpdate upd = scheme_.issue_update(server_, "T");
  Bytes wire = ct.to_bytes();
  auto parse = [&](ByteSpan b) { return ReactCiphertext::from_bytes(scheme_.params(), b); };
  expect_truncations_throw(wire, parse);
  flip_bits(wire, parse, [&](const ReactCiphertext& parsed, size_t bit) {
    auto out = scheme_.open(SealedCiphertext{parsed}, user_.a, upd, server_.pub);
    EXPECT_FALSE(out.has_value()) << "bit " << bit << " survived the MAC";
  });
}

TEST_F(WireRobustness, MultiServerArtifactsTruncations) {
  MultiServerTre mstre(params::load("tre-toy-96"));
  std::vector<ServerPublicKey> pubs = {server_.pub};
  MultiServerUserKey key = mstre.user_key(user_.a, pubs);
  expect_truncations_throw(key.to_bytes(), [&](ByteSpan b) {
    return MultiServerUserKey::from_bytes(mstre.params(), b);
  });
  MultiServerCiphertext ct = mstre.encrypt(to_bytes("m"), key, pubs, "T", rng_);
  expect_truncations_throw(ct.to_bytes(), [&](ByteSpan b) {
    return MultiServerCiphertext::from_bytes(mstre.params(), b);
  });
}

TEST_F(WireRobustness, AnyCiphertextTruncations) {
  PolicyLock lock(params::load("tre-toy-96"));
  std::vector<std::string> conds = {"c1", "c2"};
  AnyCiphertext ct = lock.lock_any(to_bytes("m"), user_.pub, server_.pub, conds, rng_);
  expect_truncations_throw(ct.to_bytes(), [&](ByteSpan b) {
    return AnyCiphertext::from_bytes(lock.scheme().params(), b);
  });
}

TEST_F(WireRobustness, KeyUpdateGarbageCorpus) {
  // Pure noise at many lengths — including lengths that happen to match
  // a genuine encoding — must never crash, and must never verify. This
  // is exactly what a kGarbage Byzantine mirror serves (simnet/faults.h).
  KeyUpdate genuine = scheme_.issue_update(server_, "2030-01-01");
  size_t honest_len = genuine.to_bytes().size();
  hashing::HmacDrbg fuzz(to_bytes("garbage-corpus"));
  for (size_t len : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, size_t{7},
                     size_t{16}, size_t{33}, honest_len - 1, honest_len,
                     honest_len + 1, size_t{256}, size_t{1024}}) {
    for (int sample = 0; sample < 8; ++sample) {
      Bytes junk(len);
      fuzz.fill(junk);
      std::optional<KeyUpdate> parsed =
          wire::try_parse<KeyUpdate>(scheme_.params(), junk);
      if (parsed) {
        EXPECT_FALSE(scheme_.verify_update(server_.pub, *parsed))
            << "random " << len << "-byte blob verified";
      }
    }
  }
}

TEST_F(WireRobustness, TryFromBytesMatchesThrowingParser) {
  // wire::try_parse is the non-throwing form of from_bytes: nullopt
  // exactly where from_bytes throws, identical value where it succeeds.
  KeyUpdate upd = scheme_.issue_update(server_, "2030-01-01");
  Bytes wire = upd.to_bytes();
  std::optional<KeyUpdate> ok = wire::try_parse<KeyUpdate>(scheme_.params(), wire);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, upd);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        wire::try_parse<KeyUpdate>(scheme_.params(), ByteSpan(wire.data(), len)))
        << "length " << len;
  }
}

TEST_F(WireRobustness, KeyUpdateLengthFieldManipulation) {
  // The tag-length prefix is attacker-controlled framing: every possible
  // value of the 16-bit field must parse cleanly or throw — lying about
  // the tag length must not walk the parser out of bounds.
  KeyUpdate upd = scheme_.issue_update(server_, "2030-01-01");
  Bytes wire = upd.to_bytes();
  for (unsigned v = 0; v <= 0xffff; ++v) {
    Bytes mutated = wire;
    mutated[0] = static_cast<std::uint8_t>(v >> 8);
    mutated[1] = static_cast<std::uint8_t>(v & 0xff);
    std::optional<KeyUpdate> parsed =
        wire::try_parse<KeyUpdate>(scheme_.params(), mutated);
    if (parsed && scheme_.verify_update(server_.pub, *parsed)) {
      // The genuine length reproduces the genuine update — the ONLY
      // value allowed to still verify.
      EXPECT_EQ(mutated, wire)
          << "length field " << v << " produced a verifying forgery";
    }
  }
}

TEST_F(WireRobustness, CiphertextGarbageCorpus) {
  // Noise fed to the ciphertext parsers, routed through the non-throwing
  // wire::try_parse: nullopt or a parse, never a crash.
  Ciphertext genuine = std::get<Ciphertext>(scheme_.seal(Mode::kBasic, to_bytes("msg"),
                                                         user_.pub, server_.pub, "T",
                                                         rng_).body);
  size_t honest_len = genuine.to_bytes().size();
  hashing::HmacDrbg fuzz(to_bytes("ct-garbage"));
  PolicyLock lock(params::load("tre-toy-96"));
  for (size_t len : {size_t{0}, size_t{1}, size_t{5}, size_t{32}, honest_len,
                     honest_len + 7, size_t{512}}) {
    for (int sample = 0; sample < 8; ++sample) {
      Bytes junk(len);
      fuzz.fill(junk);
      (void)wire::try_parse<Ciphertext>(scheme_.params(), junk);
      (void)wire::try_parse<FoCiphertext>(scheme_.params(), junk);
      (void)wire::try_parse<ReactCiphertext>(scheme_.params(), junk);
      (void)wire::try_parse<SealedCiphertext>(scheme_.params(), junk);
      try {
        (void)AnyCiphertext::from_bytes(scheme_.params(), junk);
      } catch (const Error&) {
      }
    }
  }
}

TEST_F(WireRobustness, CiphertextTryFromBytesMatchesThrowingParser) {
  // The contract wire::try_parse honours for KeyUpdate, for all
  // three flavours: nullopt exactly where from_bytes throws, identical
  // re-encoding where it succeeds.
  Bytes msg = to_bytes("twin parsers");
  Ciphertext basic = std::get<Ciphertext>(
      scheme_.seal(Mode::kBasic, msg, user_.pub, server_.pub, "T", rng_).body);
  FoCiphertext fo = std::get<FoCiphertext>(
      scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", rng_).body);
  ReactCiphertext react = std::get<ReactCiphertext>(
      scheme_.seal(Mode::kReact, msg, user_.pub, server_.pub, "T", rng_).body);

  auto check = [&](const Bytes& wire, auto try_parse) {
    auto ok = try_parse(ByteSpan(wire));
    ASSERT_TRUE(ok.has_value());
    EXPECT_EQ(ok->to_bytes(), wire);
    for (size_t len = 0; len < wire.size(); ++len) {
      EXPECT_FALSE(try_parse(ByteSpan(wire.data(), len))) << "length " << len;
    }
  };
  check(basic.to_bytes(),
        [&](ByteSpan b) { return wire::try_parse<Ciphertext>(scheme_.params(), b); });
  check(fo.to_bytes(),
        [&](ByteSpan b) { return wire::try_parse<FoCiphertext>(scheme_.params(), b); });
  check(react.to_bytes(),
        [&](ByteSpan b) {
          return wire::try_parse<ReactCiphertext>(scheme_.params(), b);
        });
}

TEST_F(WireRobustness, SealedCiphertextTruncations) {
  for (Mode mode : {Mode::kBasic, Mode::kFo, Mode::kReact}) {
    SealedCiphertext sc =
        scheme_.seal(mode, to_bytes("msg"), user_.pub, server_.pub, "T", rng_);
    expect_truncations_throw(sc.to_bytes(), [&](ByteSpan b) {
      return SealedCiphertext::from_bytes(scheme_.params(), b);
    });
  }
}

TEST_F(WireRobustness, SealedCiphertextUnknownModeByte) {
  SealedCiphertext sc =
      scheme_.seal(Mode::kFo, to_bytes("msg"), user_.pub, server_.pub, "T", rng_);
  Bytes wire = sc.to_bytes();
  for (unsigned b = 0; b <= 0xff; ++b) {
    if (b == 1 || b == 2 || b == 3) continue;
    Bytes mutated = wire;
    mutated[0] = static_cast<std::uint8_t>(b);
    EXPECT_FALSE(wire::try_parse<SealedCiphertext>(scheme_.params(), mutated))
        << "mode byte " << b << " accepted";
  }
}

TEST_F(WireRobustness, SealedCiphertextModeConfusionNeverAccepted) {
  // Relabelling a sealed body as a different flavour is a framing attack:
  // the parse may throw (layout mismatch), and when it happens to parse,
  // the CCA flavours must refuse to open it. (A body relabelled as kBasic
  // may emit garbage — Basic is the CPA flavour and carries no tag — but
  // must not crash.)
  KeyUpdate upd = scheme_.issue_update(server_, "T");
  for (Mode from : {Mode::kBasic, Mode::kFo, Mode::kReact}) {
    SealedCiphertext sc =
        scheme_.seal(from, to_bytes("confusion"), user_.pub, server_.pub, "T", rng_);
    Bytes wire = sc.to_bytes();
    for (std::uint8_t to : {std::uint8_t{1}, std::uint8_t{2}, std::uint8_t{3}}) {
      if (to == static_cast<std::uint8_t>(from)) continue;
      Bytes mutated = wire;
      mutated[0] = to;
      std::optional<SealedCiphertext> parsed =
          wire::try_parse<SealedCiphertext>(scheme_.params(), mutated);
      if (!parsed) continue;
      auto out = scheme_.open(*parsed, user_.a, upd, server_.pub);
      if (parsed->mode() != Mode::kBasic) {
        EXPECT_FALSE(out.has_value())
            << mode_name(from) << " body opened under " << mode_name(parsed->mode());
      }
    }
  }
}

TEST_F(WireRobustness, SealedFoCiphertextFlipsNeverOpen) {
  // The unified wire inherits the FO flavour's CCA robustness: any
  // single-bit flip — including in the mode byte — throws, refuses, or
  // (mode byte -> kBasic only) degrades to garbage, never crashes and
  // never opens to the true plaintext under a CCA flavour.
  Bytes msg = to_bytes("integrity matters");
  SealedCiphertext sc = scheme_.seal(Mode::kFo, msg, user_.pub, server_.pub, "T", rng_);
  KeyUpdate upd = scheme_.issue_update(server_, "T");
  Bytes wire = sc.to_bytes();
  auto parse = [&](ByteSpan b) { return SealedCiphertext::from_bytes(scheme_.params(), b); };
  expect_truncations_throw(wire, parse);
  flip_bits(wire, parse, [&](const SealedCiphertext& parsed, size_t bit) {
    auto out = scheme_.open(parsed, user_.a, upd, server_.pub);
    if (parsed.mode() == Mode::kBasic) return;  // CPA flavour: garbage in-contract
    EXPECT_FALSE(out.has_value()) << "bit " << bit << " survived the sealed open";
  });
}

TEST_F(WireRobustness, AnyCiphertextFlipsNeverOpenWrongly) {
  // The multi-wrap fallback ciphertext: a flipped bit may only turn
  // decryption into a throw or garbage, never a crash. (Any* carries no
  // integrity tag of its own — callers needing CCA wrap FO/REACT — so
  // garbage output is in-contract; memory safety is what is on trial,
  // under ASan/UBSan in the sanitizer build.)
  PolicyLock lock(params::load("tre-toy-96"));
  std::vector<std::string> conds = {"c1", "c2"};
  Bytes msg = to_bytes("fallback wire");
  AnyCiphertext ct = lock.lock_any(msg, user_.pub, server_.pub, conds, rng_);
  KeyUpdate upd = scheme_.issue_update(server_, "c2");
  Bytes wire = ct.to_bytes();
  auto parse = [&](ByteSpan b) { return AnyCiphertext::from_bytes(scheme_.params(), b); };
  flip_bits(wire, parse, [&](const AnyCiphertext& parsed, size_t) {
    try {
      (void)lock.unlock_any(parsed, user_.a, upd);
    } catch (const Error&) {
      // semantic rejection is fine; crashing is not
    }
  });
}

TEST_F(WireRobustness, HybridCiphertextTruncations) {
  baselines::HybridTre hybrid(params::load("tre-toy-96"));
  baselines::PkeKeyPair pke = hybrid.pke_keygen(rng_);
  auto ct = hybrid.encrypt(to_bytes("m"), pke, server_.pub, "T", rng_);
  expect_truncations_throw(ct.to_bytes(), [&](ByteSpan b) {
    return baselines::HybridCiphertext::from_bytes(hybrid.params(), b);
  });
}

// --- Pinned encodings -------------------------------------------------------
// Every codec that no golden vector elsewhere covers, built on tre-toy-96
// from a DRBG seeded per artifact ("golden-wire-<artifact>"). The hex was
// captured before the codecs moved onto common/wire.h; each wire is then
// one more input to expect_truncations_throw.

using B512 = Tre512Backend;

constexpr const char* kGoldenTag = "2030-01-01T00:00:00Z";

constexpr const char* kGoldenThresholdKey =
    "00030002024fdb8d81a8bbf6ab7c3c960e036b79b392b19a839d1224a9ad0344"
    "2c4c68347643f24243d1020325af5c4dedb1ff1d2f14e9d1035bdae496997d96"
    "6a7833cc7c";
constexpr const char* kGoldenServerShare = "00010643e6cca0";
constexpr const char* kGoldenPartialUpdate =
    "00010014323033302d30312d30315430303a30303a30305a034ce003b0efccef"
    "ebe8fee538";
constexpr const char* kGoldenDkgCommitment =
    "0001000202336decdfc3d625b906f9cd64038da6b74fc0e1a3862a7f9aae";
constexpr const char* kGoldenHybridEnvelope =
    "040052020360533ef7518f9eb8cce702ff0020ea9c9f6fcbaa3238b047824447"
    "21570d38c66f844f85961eb38e71ff8464dc4d00202530f87c24be7ce44ad895"
    "4b6ba76017c36f804a61cd5ec3c4c3e8e160375971006e002076910bf5a2ad0e"
    "5417b7e8c857c60df7f32ac1c06aeaa171791f8a8c2c6a224f00205850ffe89e"
    "778cb931dce736e72a1b35c120ade4f5edfd2739ac99f46b2cbb3a0000000000"
    "000008002083a97e712c954bf6b6da42dd9ecbfffa389bc733d3eb5d65fa611e"
    "aff87e50db2cb5015a5e8806279ae82353cc9597460000000d4091e1bdbfcae8"
    "57183c6085307b4fac3b532b088def25b8bb3e8180dc963f40a5be753f18fc11"
    "896c1c2bfb54";
constexpr const char* kGoldenRswPuzzle =
    "00205ec36af643c8e65bd9c4d94cf3166652f0fcc7bcabbca37f41f948091b6e"
    "744f002016ce85f6faa40791da698973937b475a349fbc76c4bbd081ef61d99e"
    "01992a8200000000000000080010bef38f8e6764ec79b8f947dcb0b039f5";
constexpr const char* kGoldenCheckpoint =
    "545245434b50543142bc9b8b354d92daaf8a8c717406e39004d98a25cfca1297"
    "13e90bad35115115000000000000000300000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000005b318adf2ff5b207492e9a3618e5adb"
    "f794db9e7d657a8471845b48c9ba19195b1092658500875c0000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "0000000000000000000000000000000000000000000000000000000000000000"
    "000000000000000016ce85f6faa40791da698973937b475a349fbc76c4bbd081"
    "ef61d99e01992a82521ec01e3758b4b87f9e977240e12e8ab695d61c26fa1ed2"
    "5e8e5befafec44ad";
constexpr const char* kGoldenHourKey =
    "02000a323030352d30362d3036000e323030352d30362d30365430395a024fed"
    "c485d07306bce23984460263d14adc9ff8a318e303a9d50118c0a78619";
constexpr const char* kGoldenMinuteKey =
    "03000a323030352d30362d3036000e323030352d30362d30365430395a001132"
    "3030352d30362d30365430393a33305a031ed5e2b0cd93601f34d759de0263d1"
    "4adc9ff8a318e303a9d50205d063d8da3e153f7ec55c6700";
constexpr const char* kGoldenAnyCiphertext =
    "03986a4a9766ab39c3f29cdf91000200026331002055e49e0159ae943f8ccbd9"
    "381083fdc9aace5192477008f17b49c762364862ee000263320020920a58c104"
    "b1b58c7a6ce4cc3f4d9b0dbb61e27fc6fc2a82bceab29737ccd331000ac07a5a"
    "c06749444fc76c";
constexpr const char* kGoldenMultiServerUserKey =
    "0344fc6f21272906f5bdeba2f80002029484a9a5c9a8013d392c9d5d02303f07"
    "76d15d2c5940cf48db";
constexpr const char* kGoldenMultiServerCiphertext =
    "00020310531a2e4316b0187c2edb63031860975a066f3537b7d05347000ca984"
    "eb8ae896d63a50def1e9";
constexpr const char* kGoldenBaselineHybrid =
    "033154ab2854615b0de5b6c88e032b9ba56b2b6e9b44e5fe531f000d8fbb1eb2"
    "b8e1f7b7274f71ffa4";
constexpr const char* kGoldenKeystoreBlob =
    "31cca318c7142de60398ddfc8d235a08000000032655e48b57267cca45c8308b"
    "bf6e7ac08fbd5de777d46addd5ed12579ae75b463714cf82d76f172638ca1f1b"
    "707050ae51e1cf98";
constexpr const char* kGoldenCliEnvelope =
    "54524531020a7472652d746f792d3936034937894906c10e92306ebdb50330b3"
    "ee6ede30f24ce1626ee1";
constexpr const char* kGoldenErrorFrame =
    "5452456401ff0000000c066e6f207375636820746167";
constexpr const char* kGoldenKeyReplyFrame =
    "545245640181000000250a7472652d746f792d393603806b8ec7ba677a1de493"
    "77a603422eb7ceab334f825f6b7798";
constexpr const char* kGoldenGetRangeFrame =
    "5452456401030000000c010203040506070800000010";
constexpr const char* kGoldenRangeReplyFrame =
    "5452456401830000004e00000000000000050000000000000002000000020000"
    "0019000a323033302d30312d303103494855b8e9e1d64b4485a3280000001900"
    "0a323033302d30312d3032031db6bae33b8c5067e0522c73";

constexpr const char* kGoldenIdKey =
    "0011616c696365406578616d706c652e6f7267032e541afe2512de5d4b6feb48";
constexpr const char* kGoldenIdTreBasic =
    "034786f3d0e4326d959f6f469b000c1f40e554d5a2a0dc781246b7";
constexpr const char* kGoldenIdTreFo =
    "02379f0e27d4813a697c05b16d002000e9d64d932f406e346fda77b3d6896fec"
    "aad2a4378e2c781ae85bc9a0b4aa36000c6fd315d5b24d4e7a42988537";
constexpr const char* kGoldenSplitIdTre =
    "024d4847010467e89c558e32d9000c2c93ede96925695f723054c5";
constexpr const char* kGoldenLockAll =
    "036efaebf1ef92d72e9e502b1f000acc6ad93f51d93627b394";
constexpr const char* kGoldenHibeCiphertext =
    "033656edfd09946c6597f7e0480295f28f72f93dac4dd690e4c40339e5e3995e"
    "b774cf257736dd87b1d3502ba60cdc139915";
constexpr const char* kGoldenHierarchicalCiphertext =
    "033af1c10bc79fd86927d4947b037e6323eda5d7f177bb4940770283139b9ef5"
    "9b255cc48da68ceae76351181dcb755bb6f6e9e97c28a017769f";

Bytes golden_seed(const char* artifact) {
  return to_bytes(std::string("golden-wire-") + artifact);
}

TEST_F(WireRobustness, ThresholdArtifactsPinnedAndStrict) {
  auto p = params::load("tre-toy-96");
  hashing::HmacDrbg rng(golden_seed("threshold"));
  threshold::BasicThresholdScheme<B512> ts(p);
  auto [key, shares] = ts.setup({3, 2}, rng);
  threshold::BasicPartialUpdate<B512> partial = ts.issue_partial(shares[0], kGoldenTag);
  hashing::HmacDrbg dkg_rng(golden_seed("dkg"));
  threshold::DkgNode<B512> node(p, {3, 2}, 1, dkg_rng);

  EXPECT_EQ(to_hex(key.to_bytes()), kGoldenThresholdKey);
  EXPECT_EQ(to_hex(shares[0].to_bytes(*p)), kGoldenServerShare);
  EXPECT_EQ(to_hex(partial.to_bytes()), kGoldenPartialUpdate);
  EXPECT_EQ(to_hex(node.commitment().to_bytes()), kGoldenDkgCommitment);

  expect_truncations_throw(key.to_bytes(), [&](ByteSpan b) {
    return threshold::BasicThresholdKey<B512>::from_bytes(*p, b);
  });
  expect_truncations_throw(
      shares[0].to_bytes(*p),
      [&](ByteSpan b) { return threshold::BasicServerShare<B512>::from_bytes(*p, b); },
      [&](const threshold::BasicServerShare<B512>& s) { return s.to_bytes(*p); });
  expect_truncations_throw(partial.to_bytes(), [&](ByteSpan b) {
    return threshold::BasicPartialUpdate<B512>::from_bytes(*p, b);
  });
  expect_truncations_throw(node.commitment().to_bytes(), [&](ByteSpan b) {
    return threshold::DkgCommitment<B512>::from_bytes(*p, b);
  });
}

TEST_F(WireRobustness, TimeLockArtifactsPinnedAndStrict) {
  hashing::HmacDrbg env_rng(golden_seed("hybrid-envelope"));
  ServerKeyPair server = scheme_.server_keygen(env_rng);
  UserKeyPair user = scheme_.user_keygen(server.pub, env_rng);
  auto env = timelock::seal_hybrid(scheme_, Mode::kFo, to_bytes("hybrid golden"),
                                   user.pub, server.pub, kGoldenTag, {8, 256}, env_rng);

  hashing::HmacDrbg rsw_rng(golden_seed("rsw-puzzle"));
  baselines::RswTrapdoor td = baselines::Rsw::keygen(rsw_rng, 256);
  baselines::RswPuzzle puzzle =
      baselines::Rsw::seal(td, to_bytes("0123456789abcdef"), 8, rsw_rng);
  timelock::RswSolver solver(puzzle);
  solver.advance(3);

  EXPECT_EQ(to_hex(env.to_bytes()), kGoldenHybridEnvelope);
  EXPECT_EQ(to_hex(puzzle.to_bytes()), kGoldenRswPuzzle);
  EXPECT_EQ(to_hex(solver.checkpoint()), kGoldenCheckpoint);

  expect_truncations_throw(env.to_bytes(), [&](ByteSpan b) {
    return timelock::BasicHybridEnvelope<B512>::from_bytes(scheme_.params(), b);
  });
  expect_truncations_throw(puzzle.to_bytes(), [&](ByteSpan b) {
    return baselines::RswPuzzle::from_bytes(b);
  });
  expect_truncations_throw(
      solver.checkpoint(),
      [&](ByteSpan b) { return timelock::RswSolver::restore(puzzle, b); },
      [](const timelock::RswSolver& s) { return s.checkpoint(); });
}

TEST_F(WireRobustness, HierarchicalNodeKeysPinnedAndStrict) {
  // An hour key (derivation secret included) and a minute leaf: both path
  // encodings, the one hashed onto the curve and the one that seeds
  // node secrets, feed these bytes.
  auto p = params::load("tre-toy-96");
  server::Timeline timeline(server::TimeSpec::parse("2005-06-06T09:00Z")->unix_seconds());
  hashing::HmacDrbg rng(golden_seed("node-key"));
  server::HierarchicalTimeServer hts(p, timeline, rng);
  timeline.advance_to(server::TimeSpec::parse("2005-06-06T10:00Z")->unix_seconds());
  hibe::NodeKey hour = hts.key_for(*server::TimeSpec::parse("2005-06-06T09Z"));
  hibe::NodeKey minute = hts.key_for(*server::TimeSpec::parse("2005-06-06T09:30Z"));

  EXPECT_EQ(to_hex(hour.to_bytes(*p)), kGoldenHourKey);
  EXPECT_EQ(to_hex(minute.to_bytes(*p)), kGoldenMinuteKey);

  for (const hibe::NodeKey* key : {&hour, &minute}) {
    expect_truncations_throw(
        key->to_bytes(*p), [&](ByteSpan b) { return hibe::NodeKey::from_bytes(*p, b); },
        [&](const hibe::NodeKey& k) { return k.to_bytes(*p); });
  }
}

TEST_F(WireRobustness, TypeOneExtensionCiphertextsPinned) {
  hashing::HmacDrbg any_rng(golden_seed("any-ciphertext"));
  ServerKeyPair witness = scheme_.server_keygen(any_rng);
  UserKeyPair user = scheme_.user_keygen(witness.pub, any_rng);
  PolicyLock lock(params::load("tre-toy-96"));
  std::vector<std::string> conds = {"c1", "c2"};
  AnyCiphertext any =
      lock.lock_any(to_bytes("any golden"), user.pub, witness.pub, conds, any_rng);

  hashing::HmacDrbg ms_rng(golden_seed("multiserver"));
  MultiServerTre mstre(params::load("tre-toy-96"));
  std::vector<ServerPublicKey> pubs = {scheme_.server_keygen(ms_rng).pub,
                                       scheme_.server_keygen(ms_rng).pub};
  Scalar a = params::random_scalar(scheme_.params(), ms_rng);
  MultiServerUserKey ms_key = mstre.user_key(a, pubs);
  MultiServerCiphertext ms_ct =
      mstre.encrypt(to_bytes("multi golden"), ms_key, pubs, kGoldenTag, ms_rng);

  hashing::HmacDrbg hy_rng(golden_seed("baseline-hybrid"));
  ServerKeyPair ts = scheme_.server_keygen(hy_rng);
  baselines::HybridTre hybrid(params::load("tre-toy-96"));
  baselines::PkeKeyPair pke = hybrid.pke_keygen(hy_rng);
  auto hy = hybrid.encrypt(to_bytes("hybrid golden"), pke, ts.pub, kGoldenTag, hy_rng);

  EXPECT_EQ(to_hex(any.to_bytes()), kGoldenAnyCiphertext);
  EXPECT_EQ(to_hex(ms_key.to_bytes()), kGoldenMultiServerUserKey);
  EXPECT_EQ(to_hex(ms_ct.to_bytes()), kGoldenMultiServerCiphertext);
  EXPECT_EQ(to_hex(hy.to_bytes()), kGoldenBaselineHybrid);

  // §5.2 ID-TRE: an identity key (on the KeyUpdate wire), then basic, FO
  // and split-authority ciphertexts (the flavour bodies, without the
  // sealed wire's mode byte).
  idtre::IdTreScheme id(params::load("tre-toy-96"));
  const char* alice = "alice@example.org";
  hashing::HmacDrbg key_rng(golden_seed("idtre-key"));
  idtre::IdPrivateKey id_key = id.extract(id.setup(key_rng), alice);
  hashing::HmacDrbg basic_rng(golden_seed("idtre-basic"));
  ServerKeyPair authority = id.setup(basic_rng);
  SealedCiphertext id_basic = id.seal(Mode::kBasic, to_bytes("idtre golden"), alice,
                                      authority.pub, kGoldenTag, basic_rng);
  hashing::HmacDrbg fo_rng(golden_seed("idtre-fo"));
  authority = id.setup(fo_rng);
  SealedCiphertext id_fo = id.seal(Mode::kFo, to_bytes("idtre golden"), alice,
                                   authority.pub, kGoldenTag, fo_rng);
  hashing::HmacDrbg split_rng(golden_seed("split-idtre"));
  ServerKeyPair ta = id.authority_keygen(split_rng);
  ServerKeyPair ts2 = id.authority_keygen(split_rng);
  SealedCiphertext id_split = id.seal(Mode::kBasic, to_bytes("split golden"), alice,
                                      ta.pub, ts2.pub, kGoldenTag, split_rng);

  // §5.3.2 conjunction.
  hashing::HmacDrbg all_rng(golden_seed("lock-all"));
  ServerKeyPair all_witness = scheme_.server_keygen(all_rng);
  UserKeyPair all_user = scheme_.user_keygen(all_witness.pub, all_rng);
  Ciphertext all = lock.lock_all(to_bytes("all golden"), all_user.pub, all_witness.pub,
                                 conds, all_rng);

  // HIBE and the time hierarchy: HibeCiphertext has no codec, so the pin
  // is u0 || us || v.
  auto hibe_bytes = [](const hibe::HibeCiphertext& ct) {
    Bytes out = ct.u0.to_bytes_compressed();
    for (const auto& u : ct.us) out = concat({out, u.to_bytes_compressed()});
    return concat({out, ct.v});
  };
  hashing::HmacDrbg hibe_rng(golden_seed("hibe"));
  hibe::GsHibe gs(params::load("tre-toy-96"));
  hibe::RootPublicKey root = hibe::GsHibe::public_of(gs.setup(hibe_rng));
  hibe::HibeCiphertext gs_ct =
      gs.encrypt(to_bytes("hibe golden"), {"org", "team", "member"}, root, hibe_rng);
  hashing::HmacDrbg hier_rng(golden_seed("hierarchical"));
  server::Timeline timeline(server::TimeSpec::parse("2005-06-06T09:00Z")->unix_seconds());
  server::HierarchicalTimeServer hts(params::load("tre-toy-96"), timeline, hier_rng);
  UserKeyPair hier_user = scheme_.user_keygen(
      ServerPublicKey{hts.public_key().p0, hts.public_key().q0}, hier_rng);
  server::HierarchicalTre htre(params::load("tre-toy-96"));
  hibe::HibeCiphertext hier_ct =
      htre.encrypt(to_bytes("hierarchical golden"), hier_user.pub, hts.public_key(),
                   *server::TimeSpec::parse("2005-06-06T09:05Z"), hier_rng);

  EXPECT_EQ(to_hex(id_key.to_bytes()), kGoldenIdKey);
  EXPECT_EQ(to_hex(std::get<Ciphertext>(id_basic.body).to_bytes()), kGoldenIdTreBasic);
  EXPECT_EQ(to_hex(std::get<FoCiphertext>(id_fo.body).to_bytes()), kGoldenIdTreFo);
  EXPECT_EQ(to_hex(std::get<Ciphertext>(id_split.body).to_bytes()), kGoldenSplitIdTre);
  EXPECT_EQ(to_hex(all.to_bytes()), kGoldenLockAll);
  EXPECT_EQ(to_hex(hibe_bytes(gs_ct)), kGoldenHibeCiphertext);
  EXPECT_EQ(to_hex(hibe_bytes(hier_ct)), kGoldenHierarchicalCiphertext);
}

TEST_F(WireRobustness, KeystoreBlobPinnedAndStrict) {
  // open() re-derives everything from the blob; re-sealing the opened
  // secret under the same DRBG seed must reproduce the blob exactly.
  const Bytes secret = to_bytes("golden secret scalar");
  auto seal = [](ByteSpan s) {
    hashing::HmacDrbg rng(golden_seed("keystore"));
    return keystore::seal(s, "pw", rng, 3);
  };
  Bytes blob = seal(secret);
  EXPECT_EQ(to_hex(blob), kGoldenKeystoreBlob);
  expect_truncations_throw(
      blob,
      [](ByteSpan b) {
        std::optional<Bytes> opened = keystore::open(b, "pw");
        require(opened.has_value(), "keystore blob rejected");
        return *opened;
      },
      seal);
}

TEST_F(WireRobustness, CliEnvelopePinnedAndStrict) {
  hashing::HmacDrbg rng(golden_seed("cli-envelope"));
  ServerKeyPair server = scheme_.server_keygen(rng);
  Bytes file = cli::envelope_bytes(cli::FileKind::kServerPub, "tre-toy-96",
                                   server.pub.to_bytes());
  EXPECT_EQ(to_hex(file), kGoldenCliEnvelope);
  expect_truncations_throw(
      file,
      [&](ByteSpan b) {
        cli::Envelope env = cli::parse_envelope_bytes(Bytes(b.begin(), b.end()));
        (void)ServerPublicKey::from_bytes(scheme_.params(), env.payload);
        return env;
      },
      [](const cli::Envelope& env) {
        return cli::envelope_bytes(env.kind, env.set_name, env.payload);
      });
}

// One whole frame of `type` and nothing else, or a throw.
Bytes frame_payload(ByteSpan wire, daemon::FrameType type) {
  daemon::FrameReader reader;
  reader.feed(wire);
  std::optional<daemon::Frame> frame = reader.next();
  require(frame.has_value() && frame->type == type && reader.buffered() == 0,
          "not exactly one frame of the expected type");
  return frame->payload;
}

template <typename T>
T parsed_or_throw(std::optional<T> v) {
  require(v.has_value(), "payload rejected");
  return *v;
}

TEST_F(WireRobustness, DaemonFramesPinnedAndStrict) {
  using daemon::FrameType;
  hashing::HmacDrbg rng(golden_seed("daemon-frames"));
  ServerKeyPair server = scheme_.server_keygen(rng);
  std::vector<Bytes> updates = {scheme_.issue_update(server, "2030-01-01").to_bytes(),
                                scheme_.issue_update(server, "2030-01-02").to_bytes()};

  Bytes error = daemon::encode_frame(
      FrameType::kError, daemon::encode_error(Errc::kNotFound, "no such tag"));
  Bytes key_reply = daemon::encode_frame(
      FrameType::kKeyReply,
      daemon::encode_key_reply("tre-toy-96", server.pub.to_bytes()));
  Bytes get_range = daemon::encode_frame(
      FrameType::kGetRange, daemon::encode_get_range(0x0102030405060708u, 16));
  Bytes range_reply = daemon::encode_frame(
      FrameType::kRangeReply, daemon::encode_range_reply(5, 2, updates));

  EXPECT_EQ(to_hex(error), kGoldenErrorFrame);
  EXPECT_EQ(to_hex(key_reply), kGoldenKeyReplyFrame);
  EXPECT_EQ(to_hex(get_range), kGoldenGetRangeFrame);
  EXPECT_EQ(to_hex(range_reply), kGoldenRangeReplyFrame);

  expect_truncations_throw(
      error,
      [](ByteSpan b) {
        return parsed_or_throw(
            daemon::try_parse_error(frame_payload(b, FrameType::kError)));
      },
      [](const daemon::WireError& e) {
        return daemon::encode_frame(FrameType::kError,
                                    daemon::encode_error(e.code, e.message));
      });
  expect_truncations_throw(
      key_reply,
      [](ByteSpan b) {
        return parsed_or_throw(
            daemon::try_parse_key_reply(frame_payload(b, FrameType::kKeyReply)));
      },
      [](const daemon::KeyReply& r) {
        return daemon::encode_frame(FrameType::kKeyReply,
                                    daemon::encode_key_reply(r.set_name, r.pub));
      });
  expect_truncations_throw(
      get_range,
      [](ByteSpan b) {
        return parsed_or_throw(
            daemon::try_parse_get_range(frame_payload(b, FrameType::kGetRange)));
      },
      [](const daemon::RangeRequest& r) {
        return daemon::encode_frame(FrameType::kGetRange,
                                    daemon::encode_get_range(r.start, r.max_count));
      });
  expect_truncations_throw(
      range_reply,
      [](ByteSpan b) {
        return parsed_or_throw(
            daemon::try_parse_range_reply(frame_payload(b, FrameType::kRangeReply)));
      },
      [](const daemon::RangeReply& r) {
        return daemon::encode_frame(FrameType::kRangeReply,
                                    daemon::encode_range_reply(r.total, r.start,
                                                               r.updates));
      });
}

}  // namespace
}  // namespace tre::core
