#include "baselines/rivest_pk_list.h"

#include "hashing/kdf.h"

namespace tre::baselines {

using core::Scalar;
using ec::G1Point;

RivestPkList::RivestPkList(std::shared_ptr<const params::GdhParams> params,
                           size_t horizon, tre::hashing::RandomSource& rng)
    : params_(std::move(params)) {
  require(params_ != nullptr, "RivestPkList: null params");
  require(horizon >= 1, "RivestPkList: empty horizon");
  secrets_.reserve(horizon);
  public_list_.reserve(horizon);
  for (size_t e = 0; e < horizon; ++e) {
    Scalar x = params::random_scalar(*params_, rng);
    secrets_.push_back(x);
    public_list_.push_back(params_->base.mul(x));
  }
}

size_t RivestPkList::published_bytes() const {
  return public_list_.size() * params_->g1_compressed_bytes();
}

EpochCiphertext RivestPkList::encrypt(ByteSpan msg, std::uint64_t epoch,
                                      tre::hashing::RandomSource& rng) const {
  require(epoch < public_list_.size(),
          "RivestPkList: release epoch beyond the provisioned horizon");
  Scalar x = params::random_scalar(*params_, rng);
  G1Point shared = public_list_[epoch].mul(x);
  Bytes stream = hashing::oracle_bytes("RSW-PKLIST", shared.to_bytes_compressed(),
                                       msg.size());
  return EpochCiphertext{epoch, params_->base.mul(x), xor_bytes(msg, stream)};
}

Scalar RivestPkList::release_epoch_secret(std::uint64_t epoch) const {
  require(epoch < secrets_.size(), "RivestPkList: unknown epoch");
  return secrets_[epoch];
}

Bytes RivestPkList::decrypt(const params::GdhParams& /*params*/,
                            const EpochCiphertext& ct, const Scalar& epoch_secret) {
  G1Point shared = ct.c1.mul(epoch_secret);
  Bytes stream = hashing::oracle_bytes("RSW-PKLIST", shared.to_bytes_compressed(),
                                       ct.body.size());
  return xor_bytes(ct.body, stream);
}

}  // namespace tre::baselines
