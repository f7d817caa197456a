// §5.3.1: a time-bound key update IS the BLS short signature s·H1(T) by
// the time server on the time string. These cases drive the core's
// issue_update/verify_update as that signature scheme: sign/verify,
// wrong keys, the point at infinity, and batch verification of a signed
// batch or an archive catch-up.
#include <gtest/gtest.h>

#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/archive.h"

namespace tre::core {
namespace {

class BlsTest : public ::testing::Test {
 protected:
  BlsTest()
      : scheme_(params::load("tre-toy-96")),
        rng_(to_bytes("bls-tests")),
        keys_(scheme_.server_keygen(rng_)) {}

  std::vector<KeyUpdate> make_batch(size_t n, const char* prefix = "msg-") {
    std::vector<KeyUpdate> batch;
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(scheme_.issue_update(keys_, prefix + std::to_string(i)));
    }
    return batch;
  }

  std::vector<size_t> verify_batch(const std::vector<KeyUpdate>& batch) {
    return scheme_.verify_updates_batch(keys_.pub, batch, rng_);
  }

  TreScheme scheme_;
  hashing::HmacDrbg rng_;
  ServerKeyPair keys_;
};

TEST_F(BlsTest, SignVerifyRoundtrip) {
  KeyUpdate sig = scheme_.issue_update(keys_, "hello");
  EXPECT_TRUE(scheme_.verify_update(keys_.pub, sig));
  EXPECT_FALSE(scheme_.verify_update(keys_.pub, KeyUpdate{"hullo", sig.sig}));
}

TEST_F(BlsTest, SignatureIsDeterministic) {
  EXPECT_EQ(scheme_.issue_update(keys_, "m"), scheme_.issue_update(keys_, "m"));
}

TEST_F(BlsTest, WrongKeyRejected) {
  ServerKeyPair other = scheme_.server_keygen(rng_);
  EXPECT_FALSE(scheme_.verify_update(keys_.pub, scheme_.issue_update(other, "m")));
  EXPECT_FALSE(scheme_.verify_update(
      keys_.pub, KeyUpdate{"m", ec::G1Point::infinity(scheme_.params().ctx())}));
}

TEST_F(BlsTest, SignatureIsOneCompressedPoint) {
  KeyUpdate sig = scheme_.issue_update(keys_, "short");
  EXPECT_EQ(sig.sig.to_bytes_compressed().size(),
            scheme_.params().g1_compressed_bytes());
}

// The RLC batch verifier checks a signed batch and names the forged
// positions.
TEST_F(BlsTest, BatchVerificationAcceptsValidBatch) {
  EXPECT_TRUE(verify_batch(make_batch(20)).empty());
  EXPECT_TRUE(verify_batch({}).empty());  // vacuous
}

TEST_F(BlsTest, BatchVerificationCatchesOneForgery) {
  auto batch = make_batch(20);
  // Replace one signature with a signature on a different message.
  batch[7].sig = scheme_.issue_update(keys_, "something else").sig;
  EXPECT_EQ(verify_batch(batch), std::vector<size_t>{7});
}

TEST_F(BlsTest, BatchVerificationCatchesForeignSignature) {
  auto batch = make_batch(10);
  ServerKeyPair mallory = scheme_.server_keygen(rng_);
  batch[3] = scheme_.issue_update(mallory, batch[3].tag);
  EXPECT_EQ(verify_batch(batch), std::vector<size_t>{3});
}

TEST_F(BlsTest, ArchiveCatchUpBatchVerification) {
  server::UpdateArchive archive;
  for (int i = 0; i < 30; ++i) {
    archive.put(scheme_.issue_update(keys_, std::string("t").append(std::to_string(i))));
  }
  size_t cursor = 0;
  std::vector<KeyUpdate> updates = archive.since(cursor);
  EXPECT_TRUE(verify_batch(updates).empty());
  // One forged update is attributed exactly; its siblings still verify.
  updates[11].sig = updates[11].sig.doubled();
  EXPECT_EQ(verify_batch(updates), std::vector<size_t>{11});
}

}  // namespace
}  // namespace tre::core
