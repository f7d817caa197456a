// Correctness and behavioural tests for every baseline the paper
// compares against (DESIGN.md §2).
#include <gtest/gtest.h>

#include "baselines/bf_ibe.h"
#include "baselines/hybrid.h"
#include "baselines/may_escrow.h"
#include "baselines/mont_timevault.h"
#include "baselines/rivest_pk_list.h"
#include "baselines/rivest_server.h"
#include "baselines/rsw_puzzle.h"
#include "baselines/timed_commitment.h"
#include "core/tre.h"

namespace tre::baselines {
namespace {

constexpr const char* kTag = "2005-06-06T09:00:00Z";

class BaselinesTest : public ::testing::Test {
 protected:
  BaselinesTest()
      : params_(params::load("tre-toy-96")), rng_(to_bytes("baseline-tests")) {}

  std::shared_ptr<const params::GdhParams> params_;
  hashing::HmacDrbg rng_;
};

// --- Boneh-Franklin IBE --------------------------------------------------------

TEST_F(BaselinesTest, IbeRoundtrip) {
  BfIbe ibe(params_);
  ServerKeyPair master = ibe.setup(rng_);
  IbePrivateKey alice = ibe.extract(master, "alice");
  EXPECT_TRUE(ibe.verify_private_key(master.pub, alice));

  Bytes msg = to_bytes("ibe message");
  auto ct = ibe.encrypt(msg, "alice", master.pub, rng_);
  EXPECT_EQ(ibe.decrypt(ct, alice), msg);

  IbePrivateKey bob = ibe.extract(master, "bob");
  EXPECT_NE(ibe.decrypt(ct, bob), msg);
  EXPECT_FALSE(ibe.verify_private_key(master.pub, IbePrivateKey{"alice", bob.d}));
}

// --- Hybrid PKE + IBE -----------------------------------------------------------

class HybridTest : public BaselinesTest {
 protected:
  HybridTest()
      : hybrid_(params_),
        tre_scheme_(params_),
        time_server_(tre_scheme_.server_keygen(rng_)),
        receiver_(hybrid_.pke_keygen(rng_)) {}

  HybridTre hybrid_;
  core::TreScheme tre_scheme_;
  core::ServerKeyPair time_server_;
  PkeKeyPair receiver_;
};

TEST_F(HybridTest, Roundtrip) {
  Bytes msg = to_bytes("hybrid construction");
  auto ct = hybrid_.encrypt(msg, receiver_, time_server_.pub, kTag, rng_);
  core::KeyUpdate upd = tre_scheme_.issue_update(time_server_, kTag);
  EXPECT_EQ(hybrid_.decrypt(ct, receiver_.b, upd), msg);
}

TEST_F(HybridTest, NeedsBothComponents) {
  Bytes msg = to_bytes("hybrid construction");
  auto ct = hybrid_.encrypt(msg, receiver_, time_server_.pub, kTag, rng_);
  // Wrong receiver secret: garbage even with the right update.
  core::KeyUpdate upd = tre_scheme_.issue_update(time_server_, kTag);
  PkeKeyPair eve = hybrid_.pke_keygen(rng_);
  EXPECT_NE(hybrid_.decrypt(ct, eve.b, upd), msg);
  // Right secret, wrong update: also garbage.
  core::KeyUpdate early = tre_scheme_.issue_update(time_server_, "1999-01-01");
  EXPECT_NE(hybrid_.decrypt(ct, receiver_.b, early), msg);
}

TEST_F(HybridTest, CiphertextCarriesTwoGroupElements) {
  // The size overhead TRE halves (E2): hybrid = 2 points + body,
  // TRE = 1 point + body.
  Bytes msg(100, 0xab);
  auto hybrid_ct = hybrid_.encrypt(msg, receiver_, time_server_.pub, kTag, rng_);
  core::UserKeyPair user = tre_scheme_.user_keygen(time_server_.pub, rng_);
  auto tre_ct = std::get<core::Ciphertext>(tre_scheme_.seal(core::Mode::kBasic, msg,
                                                            user.pub, time_server_.pub,
                                                            kTag, rng_).body);
  size_t point = params_->g1_compressed_bytes();
  EXPECT_EQ(hybrid_ct.to_bytes().size() - tre_ct.to_bytes().size(), point);
}

TEST_F(HybridTest, SerializationRoundtrip) {
  Bytes msg = to_bytes("wire");
  auto ct = hybrid_.encrypt(msg, receiver_, time_server_.pub, kTag, rng_);
  auto ct2 = HybridCiphertext::from_bytes(*params_, ct.to_bytes());
  core::KeyUpdate upd = tre_scheme_.issue_update(time_server_, kTag);
  EXPECT_EQ(hybrid_.decrypt(ct2, receiver_.b, upd), msg);
}

// --- Mont / HP Time Vault ----------------------------------------------------------

TEST_F(BaselinesTest, TimeVaultRoundtripAndLinearCost) {
  MontTimeVault vault(params_, rng_);
  for (int i = 0; i < 10; ++i) vault.register_user("user-" + std::to_string(i));
  EXPECT_EQ(vault.user_count(), 10u);

  Bytes msg = to_bytes("vault message");
  auto ct = vault.encrypt(msg, "user-3", kTag, rng_);

  auto keys = vault.epoch_tick(kTag);
  ASSERT_EQ(keys.size(), 10u);  // one unicast per user: O(N) per epoch
  EXPECT_EQ(vault.stats().keys_extracted, 10u);
  EXPECT_GT(vault.stats().bytes_unicast,
            10 * params_->g1_compressed_bytes() - 1);

  // Find user-3's key and decrypt.
  for (const auto& key : keys) {
    if (key.id == "user-3||" + std::string(kTag)) {
      EXPECT_EQ(vault.decrypt(ct, key), msg);
      return;
    }
  }
  FAIL() << "user-3 key not issued";
}

TEST_F(BaselinesTest, TimeVaultKeyIsTimeScoped) {
  MontTimeVault vault(params_, rng_);
  vault.register_user("alice");
  Bytes msg = to_bytes("later");
  auto ct = vault.encrypt(msg, "alice", "2005-06-07T00:00:00Z", rng_);
  auto keys_today = vault.epoch_tick(kTag);
  EXPECT_NE(vault.decrypt(ct, keys_today[0]), msg);
}

TEST_F(BaselinesTest, TimeVaultEscrowProblem) {
  // The server reads user mail — the paper's argument against this design.
  MontTimeVault vault(params_, rng_);
  vault.register_user("alice");
  Bytes msg = to_bytes("supposedly private");
  auto ct = vault.encrypt(msg, "alice", kTag, rng_);
  EXPECT_EQ(vault.server_decrypt(ct, "alice", kTag), msg);
}

// --- Rivest interactive server --------------------------------------------------------

TEST_F(BaselinesTest, RivestServerRoundtrip) {
  RivestServer server(to_bytes("server-seed"));
  Bytes msg = to_bytes("submitted in the clear");
  RivestCiphertext ct = server.submit("alice", msg, /*epoch=*/42);
  Bytes key = server.publish_epoch_key(42);
  EXPECT_EQ(RivestServer::decrypt(ct, key), msg);
}

TEST_F(BaselinesTest, RivestServerLearnsEverything) {
  RivestServer server(to_bytes("server-seed"));
  Bytes msg = to_bytes("submitted in the clear");
  (void)server.submit("alice", msg, 42);
  ASSERT_EQ(server.server_knowledge().size(), 1u);
  const auto& record = server.server_knowledge()[0];
  EXPECT_EQ(record.sender_id, "alice");      // sender anonymity lost
  EXPECT_EQ(record.message, msg);            // plaintext disclosed
  EXPECT_EQ(record.release_epoch, 42u);      // release time disclosed
  EXPECT_EQ(server.interactions(), 1u);      // one round-trip per message
}

TEST_F(BaselinesTest, RivestServerWrongKeyRejected) {
  RivestServer server(to_bytes("server-seed"));
  RivestCiphertext ct = server.submit("alice", to_bytes("m"), 42);
  Bytes wrong = server.publish_epoch_key(43);
  EXPECT_THROW(RivestServer::decrypt(ct, wrong), Error);
}

// --- Rivest offline public-key list -----------------------------------------------------

TEST_F(BaselinesTest, PkListRoundtripWithinHorizon) {
  RivestPkList list(params_, /*horizon=*/16, rng_);
  Bytes msg = to_bytes("epoch 7 message");
  auto ct = list.encrypt(msg, 7, rng_);
  EXPECT_EQ(RivestPkList::decrypt(*params_, ct, list.release_epoch_secret(7)), msg);
  EXPECT_NE(RivestPkList::decrypt(*params_, ct, list.release_epoch_secret(8)), msg);
}

TEST_F(BaselinesTest, PkListHorizonIsHardLimit) {
  RivestPkList list(params_, /*horizon=*/16, rng_);
  // A TRE sender can pick any future instant; this sender cannot.
  EXPECT_THROW(list.encrypt(to_bytes("m"), 16, rng_), Error);
  EXPECT_THROW(list.encrypt(to_bytes("m"), 1000000, rng_), Error);
}

TEST_F(BaselinesTest, PkListPublicationGrowsLinearly) {
  RivestPkList small(params_, 8, rng_);
  RivestPkList large(params_, 64, rng_);
  EXPECT_EQ(large.published_bytes(), 8 * small.published_bytes());
}

// --- May escrow agent ---------------------------------------------------------------------

TEST_F(BaselinesTest, EscrowStoresAndReleases) {
  MayEscrowAgent agent;
  agent.deposit("alice", "bob", to_bytes("first"), 100);
  agent.deposit("carol", "dave", to_bytes("second"), 200);
  EXPECT_EQ(agent.stored_messages(), 2u);
  EXPECT_GT(agent.stored_bytes(), 0u);

  auto due = agent.release_due(150);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].recipient, "bob");
  EXPECT_EQ(due[0].message, to_bytes("first"));
  EXPECT_EQ(agent.stored_messages(), 1u);

  EXPECT_TRUE(agent.release_due(150).empty());  // nothing newly due
  auto rest = agent.release_due(1000);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(agent.stored_messages(), 0u);
  EXPECT_EQ(agent.stored_bytes(), 0u);
  EXPECT_EQ(agent.total_deposits(), 2u);
}

TEST_F(BaselinesTest, EscrowReleasesInTimeOrder) {
  MayEscrowAgent agent;
  agent.deposit("s", "r", to_bytes("late"), 300);
  agent.deposit("s", "r", to_bytes("early"), 100);
  auto due = agent.release_due(1000);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].message, to_bytes("early"));
  EXPECT_EQ(due[1].message, to_bytes("late"));
}

// --- RSW time-lock puzzle --------------------------------------------------------------------

TEST_F(BaselinesTest, RswSealSolveRoundtrip) {
  RswTrapdoor td = Rsw::keygen(rng_, /*modulus_bits=*/256);
  Bytes key = rng_.bytes(32);
  RswPuzzle puzzle = Rsw::seal(td, key, /*t=*/1000, rng_);
  EXPECT_EQ(Rsw::solve(puzzle), key);
}

TEST_F(BaselinesTest, RswBudgetModelsSlowMachines) {
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  Bytes key = rng_.bytes(32);
  RswPuzzle puzzle = Rsw::seal(td, key, 1000, rng_);
  bool done = true;
  // A machine that only manages half the squarings gets nothing.
  Bytes partial = Rsw::solve_with_budget(puzzle, 500, &done);
  EXPECT_FALSE(done);
  EXPECT_TRUE(partial.empty());
  // Enough budget solves it.
  Bytes full = Rsw::solve_with_budget(puzzle, 2000, &done);
  EXPECT_TRUE(done);
  EXPECT_EQ(full, key);
}

TEST_F(BaselinesTest, RswSolveTimeScalesWithT) {
  // Sequentiality proxy: t and 2t puzzles both solve, with the work done
  // equal to t squarings (checked via the budget API boundary).
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  Bytes key = rng_.bytes(16);
  RswPuzzle p1 = Rsw::seal(td, key, 600, rng_);
  bool done = false;
  (void)Rsw::solve_with_budget(p1, 599, &done);
  EXPECT_FALSE(done);  // 599 squarings are not enough: no shortcut
  (void)Rsw::solve_with_budget(p1, 600, &done);
  EXPECT_TRUE(done);
}

TEST_F(BaselinesTest, RswDifferentKeysDifferentSeals) {
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  RswPuzzle p1 = Rsw::seal(td, rng_.bytes(32), 100, rng_);
  RswPuzzle p2 = Rsw::seal(td, rng_.bytes(32), 100, rng_);
  EXPECT_NE(p1.sealed_key, p2.sealed_key);
}

TEST_F(BaselinesTest, RswKeygenValidatesSizes) {
  EXPECT_THROW(Rsw::keygen(rng_, 32), Error);
  EXPECT_THROW(Rsw::keygen(rng_, 1 << 20), Error);
}

TEST_F(BaselinesTest, RswCalibration) {
  double rate = Rsw::measure_squarings_per_second(256, rng_);
  EXPECT_GT(rate, 1000.0);  // any machine does >1k small squarings/sec
}

// --- Timed commitments / timed signatures (§2.1: [6], [12]) ---------------------

TEST_F(BaselinesTest, TimedCommitmentCommitterOpensInstantly) {
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  Bytes msg = to_bytes("committed value");
  auto [c, key] = TimedCommitmentScheme::commit(td, msg, /*t=*/5000, rng_);
  EXPECT_EQ(TimedCommitmentScheme::open(c, key), msg);
  EXPECT_TRUE(TimedCommitmentScheme::verify_opening(c, key, msg));
}

TEST_F(BaselinesTest, TimedCommitmentForcedOpening) {
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  Bytes msg = to_bytes("recoverable without the committer");
  auto [c, key] = TimedCommitmentScheme::commit(td, msg, 2000, rng_);
  (void)key;  // the committer vanished
  EXPECT_EQ(TimedCommitmentScheme::forced_open(c), msg);
}

TEST_F(BaselinesTest, TimedCommitmentBindingHolds) {
  RswTrapdoor td = Rsw::keygen(rng_, 256);
  Bytes msg = to_bytes("bound");
  auto [c, key] = TimedCommitmentScheme::commit(td, msg, 1000, rng_);
  Bytes wrong_key = rng_.bytes(32);
  EXPECT_THROW(TimedCommitmentScheme::open(c, wrong_key), Error);
  EXPECT_FALSE(TimedCommitmentScheme::verify_opening(c, key, to_bytes("other")));
  EXPECT_FALSE(TimedCommitmentScheme::verify_opening(c, wrong_key, msg));
}

TEST_F(BaselinesTest, GarayJakobssonTimedSignature) {
  // [12]: put a standard signature inside a timed commitment. Here the
  // signature is BLS from our own stack — a key update on the contract
  // string (§5.3.1); forced opening releases a publicly verifiable
  // signature even if the signer absconds.
  core::TreScheme scheme(params_);
  core::ServerKeyPair signer = scheme.server_keygen(rng_);
  core::KeyUpdate sig = scheme.issue_update(signer, "I will pay 100 units on 2005-07-01");

  RswTrapdoor td = Rsw::keygen(rng_, 256);
  auto [c, key] = TimedCommitmentScheme::commit(td, sig.to_bytes(), 2000, rng_);
  (void)key;

  Bytes released = TimedCommitmentScheme::forced_open(c);
  core::KeyUpdate recovered = core::KeyUpdate::from_bytes(*params_, released);
  EXPECT_EQ(recovered.tag, "I will pay 100 units on 2005-07-01");
  EXPECT_TRUE(scheme.verify_update(signer.pub, recovered));
}

}  // namespace
}  // namespace tre::baselines
