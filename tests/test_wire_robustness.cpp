// Adversarial wire-format tests: every public deserializer is fed
// systematically truncated, extended and bit-flipped images of valid
// encodings. The contract: parsing either throws tre::Error or yields an
// object that fails cryptographic verification — never a crash, never a
// silently-accepted forgery of a *verifying* artifact.
#include <gtest/gtest.h>

#include "baselines/hybrid.h"
#include "core/multiserver.h"
#include "core/policylock.h"
#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre::core {
namespace {

class WireRobustness : public ::testing::Test {
 protected:
  WireRobustness()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("wire-tests")),
        server_(scheme_.server_keygen(rng_)),
        user_(scheme_.user_keygen(server_.pub, rng_)) {}

  // Parses every truncation of `wire`; all must throw (a shorter valid
  // encoding would be a framing ambiguity).
  template <typename ParseFn>
  void expect_truncations_throw(const Bytes& wire, ParseFn parse) {
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
          KeyUpdate::try_from_bytes(scheme_.params(), junk);
      if (parsed) {
        EXPECT_FALSE(scheme_.verify_update(server_.pub, *parsed))
            << "random " << len << "-byte blob verified";
      }
    }
  }
}

TEST_F(WireRobustness, TryFromBytesMatchesThrowingParser) {
  // try_from_bytes is the noexcept-shaped twin of from_bytes: nullopt
  // exactly where from_bytes throws, identical value where it succeeds.
  KeyUpdate upd = scheme_.issue_update(server_, "2030-01-01");
  Bytes wire = upd.to_bytes();
  std::optional<KeyUpdate> ok = KeyUpdate::try_from_bytes(scheme_.params(), wire);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(*ok, upd);
  for (size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        KeyUpdate::try_from_bytes(scheme_.params(), ByteSpan(wire.data(), len)))
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
        KeyUpdate::try_from_bytes(scheme_.params(), mutated);
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
  // try_from_bytes twins: nullopt or a parse, never a crash.
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
      (void)Ciphertext::try_from_bytes(scheme_.params(), junk);
      (void)FoCiphertext::try_from_bytes(scheme_.params(), junk);
      (void)ReactCiphertext::try_from_bytes(scheme_.params(), junk);
      (void)SealedCiphertext::try_from_bytes(scheme_.params(), junk);
      try {
        (void)AnyCiphertext::from_bytes(scheme_.params(), junk);
      } catch (const Error&) {
      }
    }
  }
}

TEST_F(WireRobustness, CiphertextTryFromBytesMatchesThrowingParser) {
  // Same contract KeyUpdate::try_from_bytes already honours, for all
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
        [&](ByteSpan b) { return Ciphertext::try_from_bytes(scheme_.params(), b); });
  check(fo.to_bytes(),
        [&](ByteSpan b) { return FoCiphertext::try_from_bytes(scheme_.params(), b); });
  check(react.to_bytes(),
        [&](ByteSpan b) { return ReactCiphertext::try_from_bytes(scheme_.params(), b); });
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
    EXPECT_FALSE(SealedCiphertext::try_from_bytes(scheme_.params(), mutated))
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
          SealedCiphertext::try_from_bytes(scheme_.params(), mutated);
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

}  // namespace
}  // namespace tre::core
