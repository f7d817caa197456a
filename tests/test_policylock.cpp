// §5.3.2 policy-lock generalization (single- and multi-condition).
#include "core/policylock.h"

#include <gtest/gtest.h>

#include "hashing/drbg.h"

namespace tre::core {
namespace {

class PolicyLockTest : public ::testing::Test {
 protected:
  PolicyLockTest()
      : lock_(params::load("tre-toy-96")),
        rng_(to_bytes("policy-tests")),
        witness_(lock_.scheme().server_keygen(rng_)),
        user_(lock_.scheme().user_keygen(witness_.pub, rng_)) {}

  PolicyLock lock_;
  hashing::HmacDrbg rng_;
  ServerKeyPair witness_;
  UserKeyPair user_;
};

TEST_F(PolicyLockTest, SingleConditionRoundtrip) {
  Bytes msg = to_bytes("open the vault");
  Ciphertext ct = lock_.lock(msg, user_.pub, witness_.pub, "It is an emergency", rng_);
  WitnessStatement st = lock_.attest(witness_, "It is an emergency");
  EXPECT_TRUE(lock_.verify_statement(witness_.pub, st));
  EXPECT_EQ(lock_.unlock(ct, user_.a, st, witness_.pub), msg);
}

TEST_F(PolicyLockTest, WrongConditionStatementFails) {
  Bytes msg = to_bytes("open the vault");
  Ciphertext ct = lock_.lock(msg, user_.pub, witness_.pub, "It is an emergency", rng_);
  WitnessStatement st = lock_.attest(witness_, "Task X completed");
  EXPECT_NE(lock_.unlock(ct, user_.a, st, witness_.pub), msg);
}

TEST_F(PolicyLockTest, ConjunctionNeedsAllStatements) {
  Bytes msg = to_bytes("dual-control secret");
  std::vector<std::string> conditions = {"Task X completed", "Auditor approved"};
  Ciphertext ct = lock_.lock_all(msg, user_.pub, witness_.pub, conditions, rng_);

  std::vector<WitnessStatement> both = {lock_.attest(witness_, conditions[0]),
                                        lock_.attest(witness_, conditions[1])};
  EXPECT_EQ(lock_.unlock_all(ct, user_.a, conditions, both), msg);

  // Order-insensitive.
  std::vector<WitnessStatement> swapped = {both[1], both[0]};
  EXPECT_EQ(lock_.unlock_all(ct, user_.a, conditions, swapped), msg);

  // One statement missing -> throws.
  std::vector<WitnessStatement> just_one = {both[0]};
  EXPECT_THROW(lock_.unlock_all(ct, user_.a, conditions, just_one), Error);

  // A statement for the wrong condition does not substitute.
  std::vector<WitnessStatement> wrong = {both[0], lock_.attest(witness_, "Other")};
  EXPECT_THROW(lock_.unlock_all(ct, user_.a, conditions, wrong), Error);
}

TEST_F(PolicyLockTest, ConjunctionOfOneEqualsSingle) {
  Bytes msg = to_bytes("single");
  std::vector<std::string> conditions = {"C"};
  Ciphertext ct = lock_.lock_all(msg, user_.pub, witness_.pub, conditions, rng_);
  std::vector<WitnessStatement> st = {lock_.attest(witness_, "C")};
  EXPECT_EQ(lock_.unlock_all(ct, user_.a, conditions, st), msg);
}

TEST_F(PolicyLockTest, TimedReleaseIsAPolicyInstance) {
  // The paper's observation: TRE is the special case where the condition
  // is "It is now time T".
  Bytes msg = to_bytes("press release");
  const char* t = "It is now 2005-06-06T09:00:00Z";
  Ciphertext ct = lock_.lock(msg, user_.pub, witness_.pub, t, rng_);
  EXPECT_EQ(lock_.unlock(ct, user_.a, lock_.attest(witness_, t), witness_.pub), msg);
}

TEST_F(PolicyLockTest, EmptyConditionsRejected) {
  EXPECT_THROW(lock_.lock_all(to_bytes("m"), user_.pub, witness_.pub, {}, rng_), Error);
}

}  // namespace
}  // namespace tre::core
