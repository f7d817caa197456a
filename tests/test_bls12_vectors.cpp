// Known-answer and bit-identity vectors for the BLS12-381 backend.
//
// Every hex constant below was captured from the tree BEFORE the
// projective/cyclotomic pairing engine landed (the affine-over-F_p12
// Miller loop with the generic hard-part power), so these tests pin the
// new engine to the old engine's exact canonical outputs: pairing
// values, generators, hash-to-curve points, and the full scheme
// transcript (keys, update, all four ciphertext modes) under the
// "golden-tre-bls12-381" DRBG seed. Any deviation in the Miller loop,
// final exponentiation, scalar-multiplication results, serialization,
// or randomness draw order shows up here as a hex diff.
#include <gtest/gtest.h>

#include <string>

#include "bls12/tre381.h"
#include "hashing/drbg.h"

namespace tre::bls12 {
namespace {

// --- raw pairing KATs (pre-rewrite engine) ----------------------------------

constexpr const char* kG1Gen =
    "02161c3159840c9d682dfff662712bdacc8a91fc4ced4f1f8f7f0812be28b616f5a91b29"
    "cceeda50fd4ff6b17bde5777a2";
constexpr const char* kG2Gen =
    "030dcfc24dc1ee04b172045bf173a3e7f61bfeea0724777084734e60c4d2d29c5b8195ef"
    "3fd4e6b1dcbed9333d00e3a743077424144f96b1350f4011eb297905809d85e0e866a47e"
    "aaa51adc35136780399d25dcd6f54642c90bfa47174987ef6c";
constexpr const char* kPairGen =
    "08e28521e83dadbc2290b069480262d1b3f720991affad88035baaf5a6da415a31f5fd10"
    "03d837a537cbe84ebc439f9216835822ded4cd12d9d9e2cb3f2da9df7cd60da818d9bb74"
    "3466cb080d3a5b7754dfb703c207ac13eae2f0502b49fef117f068971778d50f21d911de"
    "ec3c53f45476d5605e1f30e68115c94006827b506d2e88d73a7e6d3956634af811f84f30"
    "187a32a8ca7aa3395ef47191d2c8395b9388f205a949d68b0cb7b9aff79bb3d43974022c"
    "a70785acef27d6f1858a379d16eb4ad1f8c2dcc615ec17452ee24693c8f8f39b4e769ae0"
    "2bd42345e91184ced6df4a30c3bb578f7536afc246ee50f2110c51fc9a4d598a612967f5"
    "6da24b5a8c90a1ba08ed00aa6229f60ec1a6418c7d961c05ecc95fa98e03d9541a2a9a52"
    "0dcc999bb9fcb80182cacc00c26f7ce8333b30f6eb7814a7ead4b8e63ebc43925b62dcc9"
    "01f95f8c2aa7aa070d6a116602eb87f99c9e8fadfc27670253e8c4417e29876a3b5f324a"
    "029ad825774af9e1266cae7971ca4d90a0088e76fd392c16111fa59e137e27f2fd0455c5"
    "b086cfff3550ed811dafce5ba234a57bd74221d871265d9c90cf4b948c7a6545edb5b9c4"
    "16c3e664d9e84f0ef897757398d0b669af41bddb9ba6f25187d225d16237b8ce1861dcde"
    "97c755142eee6079aa189ae911a1ee76dc6ae58415b83ba6d401c35581a1762cb81b0f7f"
    "315a49a8f88491d7d9280de7c8604513a5d4abae80c0375503dd8ace77e0da4d1b37f4be"
    "acdcea778c9133a763dae32e43f375dde8073760fbc373feff53576e38731c032b3878"
    "ac";
constexpr const char* kG1X5 =
    "031760968a8d3d14c29fcddfd9baa748ead4deade088c0e3f44fb8206f756f6c980dd7d5"
    "732cbf4833c60e525e3358c160";
constexpr const char* kG2X7 =
    "030d7648a40c5e1bd112cf9e73d027e37dab4964cff7eedd06c992826a281fc2ae7624f7"
    "6a25aab6a27ec8b4da4d6a418e13a53ebfb3cd3b589bbb61a8af13d345b16722a537b51d"
    "70f0a5ea1f12ee1388230ea412ac90754ec05dfcf8901a8f41";
constexpr const char* kPair57 =
    "08747895f1f4a8f9fa909abdc8ffaaf54c30b17024b72229fe82c406904c9ca5224a10e2"
    "57227ea8bf3b88b9ae12aa500efcf127c0eea85ddee3ff448029a25c8263ec6439a05a69"
    "19a569f49c126000ed93ccad9294e687ed98a429b17777e319f0f2f4aa2c709d83f60786"
    "c01cad3f64d80f307a1fd68e3fd72afa0c908dd6e5015ea6ccaec3101f51286eb7cc2f04"
    "02838a4abccf23f449459e8291c29c921af1430779cc7a74580013cba2fbce334e3b3afa"
    "4b2948e8fa1c99be09337ef00c441335df77df564f5eeda6046a53ed80b406493b659f08"
    "8a6ece250fed0df9f3f7102aaf90852770eecfbdb7e4d7c50f69c93c0b975afee5551416"
    "6873b0c9be2b6aa7e5421f30faff85eb3e79ecb01da2c9d9582d6240e11f6410061dd94b"
    "0f68723bbfd5248222773eb7755342f06ebac7213cd490bf801f0574249ee5d8e9f5cd94"
    "b552dd5f391d1ed9aba3c5500afdb24da44b83f9f0bc70a454f0013f78663ca1bde4e759"
    "b6c6f0deab8bff7097096e8459dc4dd67e8a2c83a46b890105f804a2d5a269cad41643a7"
    "8b07b1393117ec43f24319b70ff766f910c0f1067d4772ccb72e491266f05ccd8dec9698"
    "0230b5718893a6c57dbf8d239b432b9f148f14e011f1a19ba9587573fe23c1187956b6a8"
    "02989d60aedcc22c50c273b90d523aed8ec171f4831d622e9693d5008a163b06f1863bce"
    "fd45186e3311b105359df07d02dde1acead2b6dbf284c77b18ecaf67a99ddcd2f052f6a8"
    "f600bc0dd2807862d96e485b83be422053b0864ddea99858be5a4671c0bbc631098eb9"
    "92";
constexpr const char* kH1Vec =
    "0313260ea999b0ccf366968e040183a8b40c78dbab9cddcd37da9e797c5b8e4026520"
    "2d4fdc3a573bb5069ab91bae35baa";
constexpr const char* kPairH1G2 =
    "17aa33822fbf7772ad15c657e49a8510600f3b44221448542f0fcf401007a08f9bbabd2c"
    "146a6dc7946ed132fe114ecb084ad058c344b696b72964103b1cc1e3eff2eeb6581da400"
    "08700c37fbbcbb64b54e5b19631e973c5a3466fc987ee55715e0eb108ef7e636e0e8e254"
    "6dfb9311c0e2ad00c71c343c2fb9af0e2561029cc4d3dfb262bea45e867bd2ba39d14d12"
    "0af793586b79fd74d3dbd74ba7d8b6d17754c84c23d0cb525aafa2d2725b3a4d98227dc2"
    "abd9f7a024d5df4ad80c918319b2e2f3ef8d5fd3257b12e825ff1044c03c91c63210b44d"
    "395238d7a59db75e06946415a301eccd8c342e2b75476ead18a026939fcd2cbaf223f06a"
    "468446ca1695bcabb8d145f83cbd78c05ea29ebb3c3cd6323ecf717e3498293c0ac88b67"
    "14f036cf8147357223aaa1054ecefbd713319560507ec58d2bde63105776a19b7107982f"
    "b227a8ab58f3b7a8e6852872190acb1915c7f34841022c38d4572e7af08022a3e84fa15e"
    "3f8f84a1ef54bbfc0adc205b577c8daa8978226b887b582213bd16007d14cc2bf0d05dc6"
    "6e89ce129006e492cbb9359d5335030384f3d8349d8cf33d713d86de00a863a73c15bf5d"
    "0a60e4383e4e1e8d52a95e343b5abc5e092dd204fce953a1b56043c79985d4fb300f9a98"
    "3a95f14caaf399f1e9e87f6f0625c04aca0980160297e97d8488901348b2ec47c79c723c"
    "f737d4d1ebaf916447cbe443018256cf541f4c40897438a0029a2875d7ee1319dd77c77d"
    "5663d7b1c02088a79f6caa592c92f1219d6a14241b2a17760c1642eda314c9da80f21d"
    "7b";

// --- scheme golden vectors (seed "golden-tre-bls12-381") --------------------

constexpr const char* kServer =
    "021175bc6249cfe7527dfa818ac718b9a0663b43cb7d0be9cb94a83df96041516fc76d1c"
    "3f206548c786fefd12017ca8e40b5afadb6674f57b5b68acf1bf09a8f10651bafb13aed9"
    "5ce43e53cf7ea3e298d2ff3d28511a3ee74cfeacb30c209da9031155c16309d807fb3eca"
    "52e687df31f6c5675de738654cf4bd9197fe8a0d71896ac2342a1a6d34de53fb0e5bc310"
    "475600f87df4b7475d735181d0707e5c58c8997d7cc2cc1445866a78196a36218b9f3054"
    "99e6a497241ae4188373031d4d76";
constexpr const char* kUser =
    "020f2f6d44fc2adae42c75c1671475bb393b1337830b986fe93377b5bf3b40fa27dfbb02"
    "d09594393394d60d66d1d3f87e0201556973e052cf91d42d7d837ff2d14d04fec9ede3d8"
    "52a793d6892632e88fc0bf241ad18fe9cd899daf436d24fa4b931244c224f549a104563e"
    "cddf539cb9f6c8995b43cae7a5e44c2b6b1e1875cabe4b5096283022bd1b76170859bbd0"
    "c647";
constexpr const char* kPwUser =
    "030f3ceb319993bee8a579ebb47e0c0036fb946b46fbc4f1effd5cc98b2bb424f9843dd6"
    "ccd31b6adb0414c87354d27095020393f090cf9cc4116ddd497f4432901c03257c681d50"
    "d275dc238b06213af2842335967e957e30414f5189ce3a7c80df11d89124e791ac6675ca"
    "e646d38014ee7102422605c0a731151994a0641efc22792b04e3db53b7dd915dc820194"
    "f0a90";
constexpr const char* kUpdate =
    "0014323033302d30312d30315430303a30303a30305a0201779abc4d804abe454e186b5e"
    "69c7c1981a2d2c8fe7fd5bea317104620c512d075b4f6bc8a03ab63f3806083e8cb28d";
constexpr const char* kBasic =
    "030fc48fc2a79b868960aede578c8728c8d54fa164ada2d3f3647b0d9f1fc3d8497b1663"
    "3adb7c783df013a781129c3e0d14d5a85bc0082f6fd9a38ab7f9a7432c953e16bab53b1f"
    "d6cc4e653a008027daedd387554f137cf6dc3a6cc8e5cb73c0001b1b8da4f9dc6fd3ec45"
    "e299d4eb8103956ed2de6004d01759a3f8a3";
constexpr const char* kFo =
    "02155541f5bd70be6f41ec5491096fd2265d322660d4b9465119848b046357cc6c912621"
    "b97790b2ce1e395a57d30f99c0101f791d348e6ad0230af196b82d9a032534701eae39e4"
    "8064cf2e0b8462d611e7de027c2de9b9aa559b6e656d51242a0020412f850e3c8ee6aece"
    "55ba291545d08f73a4e4dac1ec662de106aba09e4bd1d1001bb15e06c6c51f10c6153277"
    "d96a9112f0a09f157d39db40e31ace00";
constexpr const char* kReact =
    "030fe8fbea12f25305cc82229029977690f6470c5f6d874d4e9b502ebf56122ec3d2b13d"
    "10c805af24150eed0da94567d20a9a453501a24bc7ea9263355d63785d767e302ebf1581"
    "e1ab823a26a2669c125874158d46c29442133e521e8bc1c99d002005cb44ae81c2f9929c"
    "f9d3eb09f825ce73b4e41f74d0ce8da70cb90a1437e605001bf655feb9f7895989e8e796"
    "50ed990dced369245ba7122cc64ea1420020fd891de413e352a3574b2fd97c868197f2ad"
    "0173a4f2d81021d5df15fea1ff14";
constexpr const char* kSealed =
    "030213166a15b457b8aedfef2d5286d9c0904b3adc923f5d8d1318e0bd042f9c341db766"
    "307ba8d4cbe98e8504cbb43b406b08684f8f9cbba34da8117cd6887df8f0e9cb2bb94e88"
    "3a6c491c081b1b2553c3803e06140ad81fff766bd77b0c3f28180020b5ee4620b5c1b3c1"
    "d98c00c248d42182eef7ca4b7fb56796cb9d9744105e2a02001ba8f96339cc89ff535ab2"
    "e51a9f601b940ed9711bbf137dc761e49000206c42d918ea3c0b11f827d1194d4c1ecdd1"
    "b6d85c14d468b7dcaff5cbbec4e1ef";

std::string hex(const Bytes& b) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(2 * b.size());
  for (std::uint8_t byte : b) {
    out.push_back(digits[byte >> 4]);
    out.push_back(digits[byte & 0xf]);
  }
  return out;
}

class Bls381VectorsTest : public ::testing::Test {
 protected:
  Bls381VectorsTest() : ctx_(Bls12Ctx::get()), rng_(to_bytes("bls381-vectors")) {}
  std::shared_ptr<const Bls12Ctx> ctx_;
  hashing::HmacDrbg rng_;
};

TEST_F(Bls381VectorsTest, GeneratorsAndSubgroups) {
  EXPECT_EQ(hex(ctx_->g1_to_bytes(ctx_->g1_generator())), kG1Gen);
  EXPECT_EQ(hex(ctx_->g2_to_bytes(ctx_->g2_generator())), kG2Gen);
  EXPECT_TRUE(ctx_->g1_in_subgroup(ctx_->g1_generator()));
  EXPECT_TRUE(ctx_->g2_in_subgroup(ctx_->g2_generator()));
  G1Point381 p5 = ctx_->g1_mul(ctx_->g1_generator(), Scalar::from_u64(5));
  G2Point381 q7 = ctx_->g2_mul(ctx_->g2_generator(), Scalar::from_u64(7));
  EXPECT_EQ(hex(ctx_->g1_to_bytes(p5)), kG1X5);
  EXPECT_EQ(hex(ctx_->g2_to_bytes(q7)), kG2X7);
  G1Point381 h = ctx_->hash_to_g1(to_bytes("bls12-381 vector point"));
  EXPECT_EQ(hex(ctx_->g1_to_bytes(h)), kH1Vec);
}

TEST_F(Bls381VectorsTest, PairingKnownAnswers) {
  Gt381 e = ctx_->pair(ctx_->g1_generator(), ctx_->g2_generator());
  EXPECT_EQ(hex(ctx_->gt_to_bytes(e)), kPairGen);

  G1Point381 p5 = ctx_->g1_mul(ctx_->g1_generator(), Scalar::from_u64(5));
  G2Point381 q7 = ctx_->g2_mul(ctx_->g2_generator(), Scalar::from_u64(7));
  Gt381 e57 = ctx_->pair(p5, q7);
  EXPECT_EQ(hex(ctx_->gt_to_bytes(e57)), kPair57);
  // Bilinearity against the pinned value: ê(5G, 7H) = ê(G, H)^35.
  EXPECT_TRUE(ctx_->gt_eq(e57, ctx_->gt_pow(e, Scalar::from_u64(35))));
  EXPECT_TRUE(ctx_->gt_eq(e57, ctx_->gt_pow_unitary(e, Scalar::from_u64(35))));

  G1Point381 h = ctx_->hash_to_g1(to_bytes("bls12-381 vector point"));
  EXPECT_EQ(hex(ctx_->gt_to_bytes(ctx_->pair(h, ctx_->g2_generator()))),
            kPairH1G2);
}

TEST_F(Bls381VectorsTest, CachedPairingMatchesUncached) {
  G1Point381 h = ctx_->hash_to_g1(to_bytes("cached-vs-uncached"));
  G2Point381 q = ctx_->g2_mul(ctx_->g2_generator(), ctx_->random_scalar(rng_));
  Gt381 plain = ctx_->pair(h, q);
  // Twice through the cache: miss then hit, identical values.
  EXPECT_TRUE(ctx_->gt_eq(ctx_->pair_cached(h, q), plain));
  EXPECT_TRUE(ctx_->gt_eq(ctx_->pair_cached(h, q), plain));
}

TEST_F(Bls381VectorsTest, FastEngineMatchesReferenceEngine) {
  // The reference engine is the seed's affine-over-F_p12 Miller loop with
  // the generic hard-exponent power — an implementation sharing nothing
  // with the projective/cyclotomic path beyond the tower primitives.
  for (int i = 0; i < 3; ++i) {
    G1Point381 p = ctx_->g1_mul(ctx_->g1_generator(), ctx_->random_scalar(rng_));
    G2Point381 q = ctx_->g2_mul(ctx_->g2_generator(), ctx_->random_scalar(rng_));
    EXPECT_TRUE(ctx_->gt_eq(ctx_->pair(p, q), ctx_->pair_reference(p, q)));
  }
}

TEST_F(Bls381VectorsTest, PairingsEqualAgreesWithReference) {
  const G1Point381& g = ctx_->g1_generator();
  const G2Point381& h2 = ctx_->g2_generator();
  Scalar s = ctx_->random_scalar(rng_);
  G1Point381 hm = ctx_->hash_to_g1(to_bytes("pe-ref"));
  G1Point381 shm = ctx_->g1_mul(hm, s);
  G2Point381 sh = ctx_->g2_mul(h2, s);
  EXPECT_TRUE(ctx_->pairings_equal(shm, h2, hm, sh));
  EXPECT_TRUE(ctx_->pairings_equal_reference(shm, h2, hm, sh));
  EXPECT_FALSE(ctx_->pairings_equal(shm, h2, hm, h2));
  EXPECT_FALSE(ctx_->pairings_equal_reference(shm, h2, hm, h2));
  (void)g;
}

TEST_F(Bls381VectorsTest, SecretLaddersAndCombMatchPublicLadder) {
  for (int i = 0; i < 3; ++i) {
    Scalar k = ctx_->random_scalar(rng_);
    EXPECT_TRUE(ctx_->g1_eq(ctx_->g1_mul_secret(ctx_->g1_generator(), k),
                            ctx_->g1_mul(ctx_->g1_generator(), k)));
    EXPECT_TRUE(ctx_->g2_eq(ctx_->g2_mul_secret(ctx_->g2_generator(), k),
                            ctx_->g2_mul(ctx_->g2_generator(), k)));
  }
  G2Comb comb(ctx_, ctx_->g2_generator());
  for (std::uint64_t small : {std::uint64_t{0}, std::uint64_t{1},
                              std::uint64_t{2}, std::uint64_t{255}}) {
    Scalar k = Scalar::from_u64(small);
    EXPECT_TRUE(ctx_->g2_eq(comb.mul(k), ctx_->g2_mul(ctx_->g2_generator(), k)));
    EXPECT_TRUE(
        ctx_->g2_eq(comb.mul_secret(k), ctx_->g2_mul(ctx_->g2_generator(), k)));
  }
  for (int i = 0; i < 3; ++i) {
    Scalar k = ctx_->random_scalar(rng_);
    G2Point381 want = ctx_->g2_mul(ctx_->g2_generator(), k);
    EXPECT_TRUE(ctx_->g2_eq(comb.mul(k), want));
    EXPECT_TRUE(ctx_->g2_eq(comb.mul_secret(k), want));
  }
}

// Replays exactly the capture program's operation sequence (keygen,
// keygen, password keygen, issue, encrypt, encrypt_fo, encrypt_react,
// seal) so the DRBG stream lines up draw for draw.
TEST(Bls381GoldenTest, MatchesPreRewriteBytes) {
  Tre381Scheme scheme = make_tre381();
  hashing::HmacDrbg rng(to_bytes(std::string("golden-tre-bls12-381")));
  auto server = scheme.server_keygen(rng);
  auto user = scheme.user_keygen(server.pub, rng);
  auto pw = scheme.user_keygen_from_password(server.pub, "hunter2");
  const char* tag = "2030-01-01T00:00:00Z";
  auto upd = scheme.issue_update(server, tag);
  Bytes msg = to_bytes("golden bit-identity message");
  auto ct = scheme.encrypt(msg, user.pub, server.pub, tag, rng);
  auto fo = scheme.encrypt_fo(msg, user.pub, server.pub, tag, rng);
  auto react = scheme.encrypt_react(msg, user.pub, server.pub, tag, rng);
  auto sealed = scheme.seal(core::Mode::kReact, msg, user.pub, server.pub, tag, rng);

  EXPECT_EQ(hex(server.pub.to_bytes()), kServer);
  EXPECT_EQ(hex(user.pub.to_bytes()), kUser);
  EXPECT_EQ(hex(pw.pub.to_bytes()), kPwUser);
  EXPECT_EQ(hex(upd.to_bytes()), kUpdate);
  EXPECT_EQ(hex(ct.to_bytes()), kBasic);
  EXPECT_EQ(hex(fo.to_bytes()), kFo);
  EXPECT_EQ(hex(react.to_bytes()), kReact);
  EXPECT_EQ(hex(sealed.to_bytes()), kSealed);

  // And the golden ciphertexts still decrypt / open.
  EXPECT_EQ(scheme.decrypt(ct, user.a, upd), msg);
  auto fo_out = scheme.decrypt_fo(fo, user.a, upd, server.pub);
  ASSERT_TRUE(fo_out.has_value());
  EXPECT_EQ(*fo_out, msg);
  auto open_out = scheme.open(sealed, user.a, upd, server.pub);
  ASSERT_TRUE(open_out.has_value());
  EXPECT_EQ(*open_out, msg);
}

}  // namespace
}  // namespace tre::bls12
