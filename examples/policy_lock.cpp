// Policy-lock generalization (paper §5.3.2).
//
// The "time server" becomes a witness signing arbitrary condition
// strings. Here: a hospital's disaster-recovery runbook is locked so the
// on-call engineer can open it only when the operations center attests
// BOTH "It is an emergency" AND "Failover to site B authorized" — the
// conjunction uses the additive combination of witness statements.
//
// Build & run:  ./examples/policy_lock
#include <cstdio>
#include <string>
#include <vector>

#include "core/policylock.h"
#include "hashing/drbg.h"

int main() {
  using namespace tre;
  core::PolicyLock lock(params::load("tre-512"));
  hashing::HmacDrbg rng(to_bytes("policy-example"));

  core::ServerKeyPair ops_center = lock.scheme().server_keygen(rng);
  core::UserKeyPair engineer = lock.scheme().user_keygen(ops_center.pub, rng);

  const std::vector<std::string> conditions = {
      "It is an emergency",
      "Failover to site B authorized",
  };
  Bytes runbook = to_bytes("1. promote replica  2. flip DNS  3. page CTO");
  core::Ciphertext sealed =
      lock.lock_all(runbook, engineer.pub, ops_center.pub, conditions, rng);
  std::printf("runbook locked under %zu conditions (%zu bytes)\n",
              conditions.size(), sealed.to_bytes().size());

  // One statement alone is not enough.
  core::WitnessStatement emergency = lock.attest(ops_center, conditions[0]);
  std::printf("ops center attests: \"%s\"\n", emergency.tag.c_str());
  try {
    (void)lock.unlock_all(sealed, engineer.a, conditions, {&emergency, 1},
                          ops_center.pub);
    std::printf("ERROR: opened with one statement\n");
    return 1;
  } catch (const Error&) {
    std::printf("engineer tries to open -> refused (second condition missing)\n");
  }

  // The second attestation arrives; both statements together unlock.
  core::WitnessStatement authorized = lock.attest(ops_center, conditions[1]);
  std::printf("ops center attests: \"%s\"\n", authorized.tag.c_str());
  std::vector<core::WitnessStatement> statements = {emergency, authorized};
  Bytes opened =
      lock.unlock_all(sealed, engineer.a, conditions, statements, ops_center.pub);
  std::printf("runbook opened: %.*s\n", static_cast<int>(opened.size()),
              reinterpret_cast<const char*>(opened.data()));

  // Statements are publicly verifiable BLS signatures on the condition.
  bool ok = lock.verify_statement(ops_center.pub, emergency) &&
            lock.verify_statement(ops_center.pub, authorized);
  std::printf("statements verify against the witness key: %s\n", ok ? "yes" : "no");
  return opened == runbook && ok ? 0 : 1;
}
