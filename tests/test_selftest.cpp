// The power-on self-test gate: the clean suite passes, every injected
// per-KAT corruption trips the gate, and once tripped the key-producing
// entry points fail closed with the typed error until the (test-only)
// reset. See src/selftest/ and common/health.h.
#include <gtest/gtest.h>

#include "bls12/tre381.h"
#include "common/health.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "keystore/keystore.h"
#include "params/params.h"
#include "selftest/selftest.h"
#include "threshold/dkg.h"
#include "threshold/threshold.h"

namespace tre::selftest {
namespace {

class SelftestGate : public ::testing::Test {
 protected:
  void SetUp() override { health::reset_for_testing(); }
  void TearDown() override { health::reset_for_testing(); }
};

TEST_F(SelftestGate, CleanSuitePasses) {
  Report report = run();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.failed.empty());
  EXPECT_EQ(report.passed.size(), all_kats().size());
}

TEST_F(SelftestGate, EveryInjectedCorruptionTripsItsKat) {
  for (Kat kat : all_kats()) {
    Report report = run(kat);
    ASSERT_EQ(report.failed.size(), 1u) << kat_name(kat);
    EXPECT_EQ(report.failed[0], kat) << kat_name(kat);
    EXPECT_EQ(report.passed.size(), all_kats().size() - 1) << kat_name(kat);
  }
}

TEST_F(SelftestGate, KatNamesRoundTrip) {
  for (Kat kat : all_kats()) {
    auto back = kat_from_name(kat_name(kat));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kat);
  }
  EXPECT_FALSE(kat_from_name("no-such-kat").has_value());
}

TEST_F(SelftestGate, FirstGatedCallRunsTheSuiteOnce) {
  // With the runner registered (linking this binary arms it), the first
  // key-producing call executes the clean suite and succeeds.
  core::TreScheme scheme(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("gate"));
  EXPECT_NO_THROW({
    auto server = scheme.server_keygen(rng);
    (void)server;
  });
  EXPECT_FALSE(health::poisoned());
}

TEST_F(SelftestGate, PoisonedStateFailsClosedAcrossEntryPoints) {
  // Keys, ciphertexts and shares are built while the latch is healthy,
  // so each gated call below fails on the latch alone.
  using B = core::Tre512Backend;
  auto params = params::load("tre-toy-96");
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("poisoned"));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::KeyUpdate update = scheme.issue_update(server, "T");
  core::EpochKey epoch = scheme.derive_epoch_key(user.a, update);
  const Bytes m = to_bytes("m");
  core::SealedCiphertext ct =
      scheme.seal(core::Mode::kBasic, m, user.pub, server.pub, "T", rng);
  core::SealedCiphertext fo =
      scheme.seal(core::Mode::kFo, m, user.pub, server.pub, "T", rng);
  threshold::BasicThresholdScheme<B> tscheme(params);
  auto [tkey, shares] = tscheme.setup({3, 2}, rng);
  threshold::BasicThresholdScheme<bls12::Bls381Backend> tscheme381(
      bls12::Bls12Ctx::get());
  auto [tkey381, shares381] = tscheme381.setup({3, 2}, rng);
  const std::vector<Bytes> msgs = {m};

  health::poison();
  EXPECT_THROW(scheme.server_keygen(rng), SelftestError);
  EXPECT_THROW(scheme.issue_update(core::ServerKeyPair{}, "T"), SelftestError);
  EXPECT_THROW(scheme.encrypt_batch(msgs, user.pub, server.pub, "T", rng), SelftestError);
  EXPECT_THROW(scheme.rebind_user_key(user.a, server.pub), SelftestError);
  EXPECT_THROW(scheme.seal(core::Mode::kFo, m, user.pub, server.pub, "T", rng),
               SelftestError);
  EXPECT_THROW(scheme.open(ct, user.a, update, server.pub), SelftestError);
  EXPECT_THROW(scheme.open_with_epoch_key(ct, epoch, server.pub), SelftestError);
  EXPECT_THROW(scheme.open_with_epoch_key(fo, epoch, server.pub), SelftestError);
  EXPECT_THROW(scheme.open_batch(std::span(&fo, 1), user.a, update, server.pub, rng),
               SelftestError);
  EXPECT_THROW(tscheme.setup({3, 2}, rng), SelftestError);
  EXPECT_THROW(tscheme.issue_partial(shares[0], "T"), SelftestError);
  EXPECT_THROW(threshold::run_dkg<B>(params, {3, 2}, rng), SelftestError);
  EXPECT_THROW(tscheme381.issue_partial(shares381[0], "T"), SelftestError);

  bls12::Tre381Scheme scheme381 = bls12::make_tre381();
  EXPECT_THROW(scheme381.server_keygen(rng), SelftestError);

  EXPECT_THROW(keystore::seal(to_bytes("secret"), "pw", rng, 2), SelftestError);
  // A structurally plausible blob (long enough, nonzero iteration count)
  // so keystore::open reaches its gated key derivation.
  EXPECT_THROW(keystore::open(Bytes(64, 1), "pw"), SelftestError);

  // The typed code is what callers branch on.
  try {
    scheme.server_keygen(rng);
    FAIL() << "expected SelftestError";
  } catch (const SelftestError& e) {
    EXPECT_EQ(e.code(), Errc::kSelftestFailed);
  }
}

TEST_F(SelftestGate, SealingWorksAgainAfterReset) {
  health::poison();
  core::TreScheme scheme(params::load("tre-toy-96"));
  hashing::HmacDrbg rng(to_bytes("reset"));
  EXPECT_THROW(scheme.server_keygen(rng), SelftestError);
  health::reset_for_testing();
  EXPECT_NO_THROW({
    auto server = scheme.server_keygen(rng);
    auto user = scheme.user_keygen(server.pub, rng);
    auto ct = scheme.seal(core::Mode::kFo, to_bytes("m"), user.pub, server.pub, "T",
                          rng);
    auto update = scheme.issue_update(server, "T");
    auto out = scheme.open(ct, user.a, update, server.pub);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(*out, to_bytes("m"));
  });
}

TEST_F(SelftestGate, RunnerPoisonsOnEnvFault) {
  // run_power_on() honors TRE_SELFTEST_FAULT; drive it directly the way
  // the health latch would, then confirm the latch reflects the result.
  ASSERT_EQ(setenv("TRE_SELFTEST_FAULT", "sha256", 1), 0);
  EXPECT_FALSE(run_power_on());
  ASSERT_EQ(unsetenv("TRE_SELFTEST_FAULT"), 0);
  // The faulty run latched the poisoned state through the KATs' own
  // gated calls (fail-closed as designed); unlatch before the clean run.
  health::reset_for_testing();
  EXPECT_TRUE(run_power_on());

  // An unknown fault name fails closed rather than silently passing.
  ASSERT_EQ(setenv("TRE_SELFTEST_FAULT", "definitely-not-a-kat", 1), 0);
  EXPECT_FALSE(run_power_on());
  ASSERT_EQ(unsetenv("TRE_SELFTEST_FAULT"), 0);
}

}  // namespace
}  // namespace tre::selftest
