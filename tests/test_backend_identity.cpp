// Bit-identity regression for the backend-generic refactor: the type-1
// instantiation of core/tre_core.h must emit byte-for-byte what the
// pre-template TreScheme emitted under the same DRBG. The golden vectors
// below were captured from the pre-refactor tree (seeds
// "golden-tre-toy-96" / "golden-tre-512"); any change to randomness draw
// order, hash domain labels, wire formats, or pairing-call orientation
// shows up here as a hex diff.
#include <gtest/gtest.h>

#include <string>

#include "core/tre.h"
#include "hashing/drbg.h"

namespace tre {
namespace {

constexpr const char* kToyServer =
    "023f3673e5667f1d8e20e36fac030ca9624f32d078f9d439b86d";
constexpr const char* kToyUser =
    "02169b15b4ba8feadcebd50e7d0397d176d10a7644b8085acc75";
constexpr const char* kToyPwUser =
    "03733a46d152d07df8dcf96abd030872bc332073a3f34b622a83";
constexpr const char* kToyUpdate =
    "0014323033302d30312d30315430303a30303a30305a0313dba18a129df8dee2"
    "3ed577";
constexpr const char* kToyBasic =
    "02782beb689cb48bd2d69575ad001b5259caef00472280a1e7ddc93a852ab2a8"
    "baeeb8d46db40009197b";
constexpr const char* kToyFo =
    "0211e2226c7688a21b0fca821200202f61deb156953788ebfb13d46f918b3bd8"
    "0edcf63e124416f06a6100cbd0a88a001bb241e385b5a5d04e8a98859ab1c73f"
    "85ec7734bdfc063f2587690c";
constexpr const char* kToyReact =
    "032eca759bbd870ae26b2da5f0002084d38322b9d419b5d0d14ed932946b2ef9"
    "a676bb692a4a0df98cd0f7d922b6b2001b03be2b0d7d80682302dea0067bfd73"
    "a3638eaf811baf7c3ce4e2e200206abf3586025d8adf6138933222de3f3e73fe"
    "a878ad1f3a7fd5ed613090cfa01d";
constexpr const char* kToySealed =
    "0303028785f8ec5ce6aa6bd7bdd800206c846935a556f12492851bb9e99d6039"
    "a1c1c3bb28a69949960fd93bc29b9cdd001bb8d9ca377deb082b660707bb4a03"
    "00f63d887a8558543bd98973f200209aad7994b171b244bc1897aff458aca1a1"
    "bfca74cf64e1fd1fbe7688a02157eb";
constexpr const char* k512Server =
    "02184629d8d1847cff9cc37c0ef15a401cde0f1e68220ddc323fffcc71db5805"
    "556924d564fac80548750597d61ba05e79d2d3f03aba654b76eb6fda5b84a4e9"
    "e803445c85871028d77df859868782a15c852c08969ca17122a2bb72820ff9eb"
    "d8d23043289efc574bf2824b912e0aa8b0ee53c1c6a515c6c3bf914235fdb798"
    "5565";
constexpr const char* k512User =
    "024fb07025ede71148d7adae83a37f3b937ed35719afd631315419267f493fd6"
    "87ac953769d00623940c0b2e8f008721abcfe2753573a8722a46de166de04b24"
    "ca020054ec4d95bc5c674df94c9e1bf0b9a016431e77e3da67f4ee04c2c92d18"
    "bf6611990a328e1b57c2564c2152424d1362f693b0a41b2b18305ecc225b6c63"
    "97e4";
constexpr const char* k512PwUser =
    "032735b18de856c9e5b98f9f682b1fd0370a736f791a0777d6ed28d35b24fb89"
    "e5709a19ff34a04c912851f6148dc5b0c51a5ab4705b3b7ba8644953199342a3"
    "020355bdcb836520a4d184e5a81c585ea2845fdd92bf5c667ef23c34e6b7c42f"
    "a5b5b798fee704f28343bd555ae0820e40ae3d988753f5a281aa8da5bb6b34d7"
    "d666";
constexpr const char* k512Update =
    "0014323033302d30312d30315430303a30303a30305a02238755fee6ba8ce4dd"
    "2069148b18e742e99b5fc31294d3f1342494332fbfa9e9f00935d1e3b52a92ec"
    "df78a907622a6126d935d150b36733f8f04e90dc7c5ec6";
constexpr const char* k512Basic =
    "023cf2afd756354c2f8d9cf96901f5b3bb8af0f50a5ee96de4226dc596e4ccd9"
    "999a5a2f71bfb1cada8e271bdf87ebde1c6650c878f96c396293bbcdc59ab3e7"
    "7a001b430d71bde2193738d190810f7fa620fb3ece0188155679681c7c3a";
constexpr const char* k512Fo =
    "0248780912e0b3e594a72897ffb31e91390889cddebe93a71e9f3548722192ae"
    "626b729c7f66802141391f7cce1bd70f570ce7a3df8cf95c442124023581296c"
    "e20020710d2922839727d8722a077148e7f8c65b36a294dd4074748a810a13a4"
    "ad0964001b51186249d2b5b42ac55eaaadab6ab5c1619657bab414e1c34b47b6";
constexpr const char* k512React =
    "033768a1f3a82b5830830854af5a6074daabef9be397b7eccadefd658ab685de"
    "a82bb95c47c590341a6037871b151360576aa3570a8e962c4c4fa81832a9c000"
    "9a0020fb6bcd886538718c4c9ed9c5fe02ab8acb1897bb0019409c2f3b13c744"
    "e98c30001b5a07053233ef222d4ebb3cb6d8d7acb762a6db4be5c6e9a922548b"
    "002096f789625ade68b9152a307a6695cae46f4e5cb8270615b5dbd8e0cf7ca1"
    "7fea";
constexpr const char* k512Sealed =
    "030306690d34a09d11fca9a9ff0c585d4f90fd8df5c2a21a8c3574740d8247b4"
    "9b58076a5d74eb2cf9732de518b79733041a66ce728f3c68c47870c1028dd50f"
    "0b300020af481e851a90c4f74bcfe4d36640eba3faf82ca744258320ceea4fd7"
    "77658ba2001b01162bdd386ebaf377a2d8466483b5461af7f7d5755c5c2ca3a8"
    "fc0020ecb85804ac0fcb04e24027d9f04b8a8735e66741d9dce1f52f3d1ca369"
    "e6ae53";

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

struct Golden {
  const char* server;
  const char* user;
  const char* pw_user;
  const char* update;
  const char* basic;
  const char* fo;
  const char* react;
  const char* sealed;
};

// Replays exactly the capture program's operation sequence (keygen, keygen,
// password keygen, issue, encrypt, encrypt_fo, encrypt_react, seal) so the
// DRBG stream lines up draw for draw.
void check_golden(const char* set_name, const Golden& g) {
  auto params = params::load(set_name);
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes(std::string("golden-") + set_name));
  core::ServerKeyPair server = scheme.server_keygen(rng);
  core::UserKeyPair user = scheme.user_keygen(server.pub, rng);
  core::UserKeyPair pw = scheme.user_keygen_from_password(server.pub, "hunter2");
  const char* tag = "2030-01-01T00:00:00Z";
  core::KeyUpdate upd = scheme.issue_update(server, tag);
  Bytes msg = to_bytes("golden bit-identity message");
  auto ct = scheme.encrypt(msg, user.pub, server.pub, tag, rng);
  auto fo = scheme.encrypt_fo(msg, user.pub, server.pub, tag, rng);
  auto react = scheme.encrypt_react(msg, user.pub, server.pub, tag, rng);
  auto sealed = scheme.seal(core::Mode::kReact, msg, user.pub, server.pub, tag, rng);

  EXPECT_EQ(hex(server.pub.to_bytes()), g.server);
  EXPECT_EQ(hex(user.pub.to_bytes()), g.user);
  EXPECT_EQ(hex(pw.pub.to_bytes()), g.pw_user);
  EXPECT_EQ(hex(upd.to_bytes()), g.update);
  EXPECT_EQ(hex(ct.to_bytes()), g.basic);
  EXPECT_EQ(hex(fo.to_bytes()), g.fo);
  EXPECT_EQ(hex(react.to_bytes()), g.react);
  EXPECT_EQ(hex(sealed.to_bytes()), g.sealed);

  // And the golden ciphertexts still decrypt.
  EXPECT_EQ(scheme.decrypt(ct, user.a, upd), msg);
  auto fo_out = scheme.decrypt_fo(fo, user.a, upd, server.pub);
  ASSERT_TRUE(fo_out.has_value());
  EXPECT_EQ(*fo_out, msg);
  auto open_out = scheme.open(sealed, user.a, upd, server.pub);
  ASSERT_TRUE(open_out.has_value());
  EXPECT_EQ(*open_out, msg);
}

constexpr Golden kToy{kToyServer, kToyUser, kToyPwUser, kToyUpdate,
                      kToyBasic,  kToyFo,   kToyReact,  kToySealed};
constexpr Golden k512{k512Server, k512User, k512PwUser, k512Update,
                      k512Basic,  k512Fo,   k512React,  k512Sealed};

TEST(BackendIdentityTest, Toy96MatchesPreRefactorBytes) {
  check_golden("tre-toy-96", kToy);
}

TEST(BackendIdentityTest, Tre512MatchesPreRefactorBytes) {
  check_golden("tre-512", k512);
}

}  // namespace
}  // namespace tre
