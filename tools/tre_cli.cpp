// tre_cli — command-line front end for the timed-release library.
//
//   tre_cli params
//   tre_cli server-keygen --set tre-512 --key server.key --pub server.pub
//   tre_cli server-keygen --backend bls381 --key server.key --pub server.pub
//   tre_cli user-keygen   --server-pub server.pub --key user.key --pub user.pub
//   tre_cli issue         --server-key server.key [--password PW] --tag 2030-01-01T00:00:00Z --out update.bin
//   tre_cli verify-update --server-pub server.pub --update update.bin
//   tre_cli encrypt       --user-pub user.pub --server-pub server.pub
//                         --tag 2030-01-01T00:00:00Z --in msg.txt --out ct.bin
//                         [--mode basic|fo|react|sealed[-basic|-fo|-react]]
//   tre_cli decrypt       --user-key user.key --server-pub server.pub
//                         --update update.bin --in ct.bin --out msg.txt
//
// Files are self-describing: a 4-byte magic, a type byte, the parameter
// set name, then the payload, so mixing parameter sets or file kinds is
// caught before any cryptography runs.
//
// Backends: every command body is ONE template over the pairing backend,
// run on a Ctx<B>. `--backend {tre512,bls381}` picks the curve for
// server-keygen and threshold-setup ("bls381" maps to the reserved set
// name "bls12-381"); every other command runs on the curve of its input
// file's set name, so keys made on either curve flow through
// issue/encrypt/decrypt unchanged.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <tuple>

#include "bls12/tre381.h"
#include "client/fetcher.h"
#include "client/socket_transport.h"
#include "core/tre.h"
#include "hashing/drbg.h"
#include "keystore/keystore.h"
#include "selftest/selftest.h"
#include "threshold/dkg.h"
#include "threshold/threshold.h"
#include "timelock/hybrid.h"
#include "timelock/solver.h"
#include "timeserver/round.h"
#include "cli_common.h"

namespace {

using namespace tre;
using cli::Args;
using cli::Envelope;
using cli::FileKind;
using cli::kBls381Set;
using cli::parse_uint;
using cli::read_file;
using cli::write_file;

// Release addressing: --tag takes a literal tag string, --round N the
// tlock-shaped round envelope (tag = "round:<N>", timeserver/round.h).
std::string tag_arg(const Args& args) {
  if (args.has("round")) {
    require(!args.has("tag"), "give --tag or --round, not both");
    return server::round_tag(parse_uint(args.get("round"), "--round"));
  }
  return args.get("tag");
}

int usage() {
  std::fprintf(stderr,
               "usage: tre_cli <command> [--opt value ...]\n"
               "  params\n"
               "  server-keygen --set NAME --key FILE --pub FILE [--password PW]\n"
               "                [--backend tre512|bls381]\n"
               "  user-keygen   --server-pub FILE --key FILE --pub FILE [--password PW]\n"
               "  issue         --server-key FILE --tag T --out FILE\n"
               "  verify-update --server-pub FILE --update FILE\n"
               "  encrypt       --user-pub FILE --server-pub FILE --tag T\n"
               "                --in FILE --out FILE [--mode basic|fo|react|sealed[-basic|-fo|-react]]\n"
               "                [--fallback W [--fallback-modulus-bits N]]\n"
               "                (a bare flavour, fo by default, writes that flavour's\n"
               "                 file kind; sealed[-flavour] writes the mode-tagged\n"
               "                 wire; --fallback W adds a time-lock lane: W sequential\n"
               "                 squarings open the ciphertext without the server)\n"
               "  decrypt       --user-key FILE --server-pub FILE --update FILE\n"
               "                --in FILE --out FILE\n"
               "                (every ciphertext file names its flavour)\n"
               "  solve         --in FILE --out FILE [--checkpoint FILE] [--budget N]\n"
               "                [--checkpoint-every N]\n"
               "                grind a hybrid ciphertext's time-lock lane; exit 3 when\n"
               "                the budget runs out (resume later from --checkpoint)\n"
               "  selftest      run the power-on KAT suite and report per-KAT results\n"
               "                (TRE_SELFTEST_FAULT=<kat> injects a corruption)\n"
               "  threshold-setup --n N --t K --out-prefix P [--password PW]\n"
               "                [--backend tre512|bls381] [--set NAME] [--dealer 1]\n"
               "                t-of-n beacon setup via Pedersen-style DKG (or a\n"
               "                trusted dealer with --dealer 1): writes P.tkey (public\n"
               "                threshold key), P.pub (the group key as an ORDINARY\n"
               "                server-pub — encrypt binds to it unchanged) and\n"
               "                P-share-i.key for i = 1..N\n"
               "  issue-partial --share FILE --tkey FILE (--tag T | --round N)\n"
               "                --out FILE [--password PW]\n"
               "                one beacon node's partial update s_i*H1(T)\n"
               "  serve         --pub FILE [--updates F1,F2,...] [--partials F1,F2,...]\n"
               "                [--server-key FILE --tags T1,T2,... [--password PW]]\n"
               "                [--bind ADDR] [--port N] [--port-file FILE]\n"
               "                [--max-conns N] [--idle-timeout-ms N]\n"
               "                serve artifacts over tred's framed TCP protocol;\n"
               "                --tags issues on the fly but REFUSES instants still\n"
               "                in the future (the server must never pre-disclose)\n"
               "  fetch         --remote HOST:PORT[,HOST:PORT...] --server-pub FILE\n"
               "                --tag T --out FILE [--timeout-ms N] [--attempts N]\n"
               "                fetch a key update from remote daemon(s) through the\n"
               "                full Byzantine trust gate (parse/tag/pairing check)\n"
               "           or:  --from T --to T --out-dir DIR [--page N]\n"
               "                catch-up: page the archive via kGetRange and verify\n"
               "                each page as ONE randomized batch (forged items are\n"
               "                bisected out); writes one envelope per update\n"
               "           or:  --threshold K --tkey FILE --remote ... (--tag T |\n"
               "                --round N) --out FILE\n"
               "                collect >= K partials across the endpoints, batch-\n"
               "                verify with Byzantine attribution, and Lagrange-\n"
               "                aggregate into the ordinary (verified) update\n"
               "  any command   [--metrics FILE]  dump the obs registry as JSON\n"
               "                (FILE = '-' for stdout)\n"
               "  downstream commands infer the backend from their input files;\n"
               "  an explicit --backend must then match the files\n");
  return 2;
}

int cmd_params() {
  for (const auto& name : params::available()) {
    auto p = params::load(name);
    std::printf("%-12s q=%zu bits  p=%zu bits  update=%zu bytes\n", name.c_str(),
                p->group_order().bit_length(), p->curve->p.bit_length(),
                p->g1_compressed_bytes());
  }
  auto ctx = bls12::Bls12Ctx::get();
  std::printf("%-12s q=%zu bits  p=%zu bits  update=%zu bytes  (--backend bls381)\n",
              kBls381Set, ctx->r().bit_length(), ctx->p().bit_length(),
              bls12::Bls381Backend::gu_wire_bytes(*ctx));
  return 0;
}

// The keystore-sealed kind of a secret-key file kind; public kinds have
// none.
std::optional<FileKind> sealed_kind(FileKind kind) {
  switch (kind) {
    case FileKind::kServerKey: return FileKind::kServerKeySealed;
    case FileKind::kUserKey: return FileKind::kUserKeySealed;
    case FileKind::kThresholdShare: return FileKind::kThresholdShareSealed;
    default: return std::nullopt;
  }
}

// ---- backend dispatch ---------------------------------------------------

// The curve one command runs on: its parameters, the parameter-set name
// its files carry, and the command's options.
template <class B>
struct Ctx {
  std::shared_ptr<const typename B::Params> p;
  std::string set;
  const Args& args;

  // The file behind option `opt`, which must be of `kind` and on this
  // curve.
  Envelope read(const std::string& opt, FileKind kind) const {
    Envelope env = cli::read_envelope(args.get(opt), kind);
    cli::require_same_set(env, set);
    return env;
  }

  template <class T>
  T load(const std::string& opt, FileKind kind) const {
    return T::from_bytes(*p, read(opt, kind).payload);
  }

  void write(const std::string& path, FileKind kind, ByteSpan payload) const {
    cli::write_envelope(path, kind, set, payload);
  }

  // Writes a secret-key file, sealed under --password when one is given.
  void write_secret(const std::string& path, FileKind kind, ByteSpan payload,
                    hashing::RandomSource& rng) const {
    const std::string password = args.get_or("password", "");
    if (password.empty()) {
      write(path, kind, payload);
    } else {
      write(path, *sealed_kind(kind), keystore::seal(payload, password, rng));
    }
  }
};

// Whether a --backend value names BLS12-381 rather than the type-1 curve.
bool names_bls381(const std::string& backend) {
  require(backend == "tre512" || backend == "bls381",
          "unknown --backend (use tre512 or bls381)");
  return backend == "bls381";
}

// Runs `cmd(ctx)` on the curve whose files carry the set name `set`.
template <class Cmd>
int on_set(const std::string& set, const Args& args, Cmd&& cmd) {
  if (set == kBls381Set) {
    return cmd(Ctx<bls12::Bls381Backend>{bls12::Bls12Ctx::get(), set, args});
  }
  return cmd(Ctx<core::Tre512Backend>{params::load(set), set, args});
}

// server-keygen and threshold-setup: the curve --backend names (tre512
// by default, on the --set parameter set).
template <class Cmd>
int on_flag(const Args& args, Cmd&& cmd) {
  if (names_bls381(args.get_or("backend", "tre512"))) {
    return on_set(kBls381Set, args, cmd);
  }
  const std::string set = args.get_or("set", "tre-512");
  require(set != kBls381Set, "internal: bls12-381 files take the 381 path");
  return on_set(set, args, cmd);
}

// Every other command: `cmd(ctx, in)` on the curve of `in`, the file of
// `kind` behind option `opt`. A secret-key file sealed under --password
// is opened first. An optional --backend is a cross-check, not a
// selector: the file's set name is authoritative.
template <class Cmd>
int on_file(const Args& args, const char* opt, FileKind kind, Cmd&& cmd) {
  Envelope in = cli::parse_envelope(args.get(opt));
  if (std::optional<FileKind> sealed = sealed_kind(kind); sealed && in.kind == *sealed) {
    const std::string password = args.get_or("password", "");
    require(!password.empty(), "this key file is password-protected: pass --password");
    std::optional<Bytes> opened = keystore::open(in.payload, password);
    require(opened.has_value(), "wrong password or corrupted key file");
    in.payload = std::move(*opened);
    in.kind = kind;
  }
  require(in.kind == kind, "wrong file kind for this option");
  const std::string backend = args.get_or("backend", "");
  require(backend.empty() || names_bls381(backend) == (in.set_name == kBls381Set),
          "--backend does not match the backend of the input files");
  return on_set(in.set_name, args, [&](const auto& c) { return cmd(c, in); });
}

// ---- backend-generic command bodies -----------------------------------

// Secret-key payloads: fixed-width scalar || the public key's own wire.
template <class B>
Bytes keypair_payload(const Ctx<B>& c, const core::Scalar& secret, ByteSpan pub) {
  return wire::Writer().raw(secret.to_bytes_be(B::scalar_bytes(*c.p))).raw(pub).take();
}

template <class Pub, class B>
std::pair<core::Scalar, Pub> read_keypair(const Ctx<B>& c, const Envelope& in) {
  wire::Reader r(in.payload);
  ByteSpan secret = r.raw(B::scalar_bytes(*c.p));
  ByteSpan pub = r.rest();
  require(r.ok(), "corrupt key file");
  return {core::Scalar::from_bytes_be(secret), Pub::from_bytes(*c.p, pub)};
}

template <class B>
int server_keygen(const Ctx<B>& c) {
  hashing::SystemRandom rng;
  core::BasicServerKeyPair<B> keys = core::BasicTreScheme<B>(c.p).server_keygen(rng);
  c.write_secret(c.args.get("key"), FileKind::kServerKey,
                 keypair_payload(c, keys.s, keys.pub.to_bytes()), rng);
  c.write(c.args.get("pub"), FileKind::kServerPub, keys.pub.to_bytes());
  std::printf("server key pair written (%s)\n", c.set.c_str());
  return 0;
}

template <class B>
int user_keygen(const Ctx<B>& c, const Envelope& in) {
  auto server = core::BasicServerPublicKey<B>::from_bytes(*c.p, in.payload);
  hashing::SystemRandom rng;
  core::BasicUserKeyPair<B> keys = core::BasicTreScheme<B>(c.p).user_keygen(server, rng);
  c.write_secret(c.args.get("key"), FileKind::kUserKey,
                 keypair_payload(c, keys.a, keys.pub.to_bytes()), rng);
  c.write(c.args.get("pub"), FileKind::kUserPub, keys.pub.to_bytes());
  std::printf("user key pair written, bound to the server key (%s)\n", c.set.c_str());
  return 0;
}

template <class B>
int issue(const Ctx<B>& c, const Envelope& in) {
  auto [s, pub] = read_keypair<core::BasicServerPublicKey<B>>(c, in);
  core::BasicKeyUpdate<B> upd = core::BasicTreScheme<B>(c.p).issue_update(
      core::BasicServerKeyPair<B>{s, pub}, tag_arg(c.args));
  c.write(c.args.get("out"), FileKind::kUpdate, upd.to_bytes());
  std::printf("update issued for \"%s\" (%zu bytes)\n", upd.tag.c_str(),
              upd.to_bytes().size());
  return 0;
}

template <class B>
int verify_update(const Ctx<B>& c, const Envelope& in) {
  auto server = core::BasicServerPublicKey<B>::from_bytes(*c.p, in.payload);
  auto upd = c.template load<core::BasicKeyUpdate<B>>("update", FileKind::kUpdate);
  bool ok = core::BasicTreScheme<B>(c.p).verify_update(server, upd);
  std::printf("update for \"%s\": %s\n", upd.tag.c_str(), ok ? "VALID" : "INVALID");
  return ok ? 0 : 1;
}

// --mode and the file kind it writes. A bare flavour writes its own kind
// (6-8): the sealed wire without its mode byte, which is the flavour's
// own encoding. "sealed" (FO) and "sealed-<flavour>" write kind 11, the
// mode-tagged wire. decrypt reads a bare kind back to its flavour.
struct Flavour {
  const char* mode_arg;
  core::Mode mode;
  FileKind kind;
};

constexpr Flavour kFlavours[] = {
    {"basic", core::Mode::kBasic, FileKind::kCiphertextBasic},
    {"fo", core::Mode::kFo, FileKind::kCiphertextFo},
    {"react", core::Mode::kReact, FileKind::kCiphertextReact},
    {"sealed", core::Mode::kFo, FileKind::kCiphertextSealed},
    {"sealed-basic", core::Mode::kBasic, FileKind::kCiphertextSealed},
    {"sealed-fo", core::Mode::kFo, FileKind::kCiphertextSealed},
    {"sealed-react", core::Mode::kReact, FileKind::kCiphertextSealed},
};

template <class B>
int encrypt(const Ctx<B>& c, const Envelope& in) {
  auto server = core::BasicServerPublicKey<B>::from_bytes(*c.p, in.payload);
  auto user = c.template load<core::BasicUserPublicKey<B>>("user-pub", FileKind::kUserPub);
  core::BasicTreScheme<B> scheme(c.p);
  hashing::SystemRandom rng;
  Bytes msg = read_file(c.args.get("in"));
  std::string tag = tag_arg(c.args);
  const std::string mode_arg = c.args.get_or("mode", "fo");
  const Flavour* flavour =
      std::find_if(std::begin(kFlavours), std::end(kFlavours),
                   [&](const Flavour& f) { return mode_arg == f.mode_arg; });
  require(flavour != std::end(kFlavours),
          "unknown --mode (use basic, fo, react or sealed[-flavour])");

  // --fallback W adds the time-lock lane: a hybrid envelope whose
  // payload key also sits behind W sequential squarings, openable with
  // `solve` when the server never publishes the update.
  std::string fallback = c.args.get_or("fallback", "");
  if (!fallback.empty()) {
    timelock::FallbackParams fb;
    fb.squarings = parse_uint(fallback, "--fallback");
    fb.modulus_bits = parse_uint<size_t>(c.args.get_or("fallback-modulus-bits", "1024"),
                                         "--fallback-modulus-bits");
    timelock::BasicHybridEnvelope<B> env = timelock::seal_hybrid(
        scheme, flavour->mode, msg, user, server, tag, fb, rng);
    Bytes wire = env.to_bytes();
    c.write(c.args.get("out"), FileKind::kCiphertextHybrid, wire);
    std::printf(
        "%zu bytes encrypted for release at \"%s\" (hybrid %s mode, "
        "%llu-squaring fallback, %zu bytes)\n",
        msg.size(), tag.c_str(), core::mode_name(flavour->mode),
        static_cast<unsigned long long>(fb.squarings), wire.size());
    return 0;
  }

  Bytes payload = scheme.seal(flavour->mode, msg, user, server, tag, rng).to_bytes();
  if (flavour->kind != FileKind::kCiphertextSealed) payload.erase(payload.begin());
  c.write(c.args.get("out"), flavour->kind, payload);
  std::printf("%zu bytes encrypted for release at \"%s\" (%s mode, %zu bytes)\n",
              msg.size(), tag.c_str(), flavour->mode_arg, payload.size());
  return 0;
}

template <class B>
int decrypt(const Ctx<B>& c, const Envelope& in) {
  core::BasicTreScheme<B> scheme(c.p);
  const core::Scalar a = read_keypair<core::BasicUserPublicKey<B>>(c, in).first;
  auto upd = c.template load<core::BasicKeyUpdate<B>>("update", FileKind::kUpdate);
  Envelope ct = cli::parse_envelope(c.args.get("in"));
  cli::require_same_set(ct, c.set);
  // The FO flavour's re-encryption check needs the server key, so open
  // takes it for every flavour.
  auto server =
      c.template load<core::BasicServerPublicKey<B>>("server-pub", FileKind::kServerPub);

  std::optional<Bytes> out;
  std::string what;
  if (ct.kind == FileKind::kCiphertextHybrid) {
    // Server lane of a hybrid envelope: the epoch update opens it the
    // normal way (the time-lock lane is `solve`'s job).
    auto env = timelock::BasicHybridEnvelope<B>::from_bytes(*c.p, ct.payload);
    out = timelock::open_hybrid(scheme, env, a, upd, server);
    what = "hybrid envelope, server lane";
  } else {
    const Flavour* flavour =
        std::find_if(std::begin(kFlavours), std::end(kFlavours),
                     [&](const Flavour& f) { return ct.kind == f.kind; });
    require(flavour != std::end(kFlavours), "wrong file kind for this option");
    Bytes wire = ct.payload;
    if (flavour->kind != FileKind::kCiphertextSealed) {
      wire.insert(wire.begin(), static_cast<std::uint8_t>(flavour->mode));
    }
    auto sc = core::BasicSealedCiphertext<B>::from_bytes(*c.p, wire);
    out = scheme.open(sc, a, upd, server);
    what = std::string(core::mode_name(sc.mode())) + " mode";
  }
  require(out.has_value(), "decryption failed: wrong key/update or tampered ciphertext");
  write_file(c.args.get("out"), *out);
  std::printf("%zu bytes decrypted (%s)\n", out->size(), what.c_str());
  return 0;
}

// ---- solve: grind the time-lock lane -----------------------------------
// Opens a hybrid ciphertext WITHOUT the server: restore (or start) the
// checkpointed solver, advance up to --budget squarings saving a
// checkpoint every --checkpoint-every, and unseal once done. Exit 3 when
// the budget ran out first — rerun with the same --checkpoint to resume.

template <class B>
int solve(const Ctx<B>& c, const Envelope& in) {
  auto env = timelock::BasicHybridEnvelope<B>::from_bytes(*c.p, in.payload);

  std::string ckpt_path = c.args.get_or("checkpoint", "");
  std::uint64_t budget = parse_uint(c.args.get_or("budget", "0"), "--budget");
  std::uint64_t every = parse_uint<std::uint64_t>(
      c.args.get_or("checkpoint-every", "65536"), "--checkpoint-every", 1);

  std::optional<timelock::RswSolver> solver;
  if (!ckpt_path.empty()) {
    std::ifstream probe(ckpt_path, std::ios::binary);
    if (probe.good()) {
      probe.close();
      solver.emplace(timelock::RswSolver::restore(env.puzzle, read_file(ckpt_path)));
      std::printf("resumed from %s: %llu / %llu squarings done\n", ckpt_path.c_str(),
                  static_cast<unsigned long long>(solver->steps_done()),
                  static_cast<unsigned long long>(solver->total_steps()));
    }
  }
  if (!solver) solver.emplace(timelock::RswSolver(env.puzzle));

  std::uint64_t spent = 0;
  auto save_checkpoint = [&] {
    if (!ckpt_path.empty()) write_file(ckpt_path, solver->checkpoint());
  };
  while (!solver->done()) {
    std::uint64_t chunk = every;
    if (budget != 0) {
      if (spent >= budget) break;
      chunk = std::min(chunk, budget - spent);
    }
    spent += solver->advance(chunk);
    save_checkpoint();
  }

  if (!solver->done()) {
    std::printf("budget exhausted: %llu / %llu squarings done%s\n",
                static_cast<unsigned long long>(solver->steps_done()),
                static_cast<unsigned long long>(solver->total_steps()),
                ckpt_path.empty() ? "" : " (checkpoint saved)");
    return 3;
  }
  auto out = timelock::open_hybrid_with_key(env, solver->key());
  require(out.has_value(),
          "solve: puzzle solved but the envelope rejected the key (tampered file?)");
  write_file(c.args.get("out"), *out);
  std::printf("%zu bytes decrypted (hybrid envelope, time-lock lane, "
              "%llu squarings)\n",
              out->size(),
              static_cast<unsigned long long>(solver->total_steps()));
  return 0;
}

// ---- threshold beacon: setup / issue-partial / fetch --threshold -------
// The t-of-n pipeline of threshold/: no single machine ever holds the
// group secret (DKG path), each beacon node signs with its share alone,
// and any K verified partials Lagrange-aggregate into the ordinary
// update — byte-identical to what a single server holding s would issue.

template <class B>
int threshold_setup(const Ctx<B>& c) {
  threshold::ThresholdConfig cfg;
  cfg.n = parse_uint<size_t>(c.args.get("n"), "--n");
  cfg.k = parse_uint<size_t>(c.args.get("t"), "--t");
  require(cfg.k >= 1 && cfg.k <= cfg.n, "threshold-setup: need 1 <= t <= n");
  const std::string prefix = c.args.get("out-prefix");
  hashing::SystemRandom rng;

  threshold::BasicThresholdKey<B> key;
  std::vector<threshold::BasicServerShare<B>> shares;
  const bool dealer = c.args.get_or("dealer", "0") == "1";
  if (dealer) {
    threshold::BasicThresholdScheme<B> ts(c.p);
    std::tie(key, shares) = ts.setup(cfg, rng);
  } else {
    auto dkg = threshold::run_dkg<B>(c.p, cfg, rng);
    require(dkg.ok(), "threshold-setup: DKG failed (complaints disqualified "
                      "too many dealers)");
    key = std::move(dkg->key);
    shares = std::move(dkg->shares);
  }

  c.write(prefix + ".tkey", FileKind::kThresholdKey, key.to_bytes());
  // The group key doubles as an ordinary server-pub: every existing
  // command (encrypt, verify-update, fetch) binds to it unchanged.
  c.write(prefix + ".pub", FileKind::kServerPub, key.group.to_bytes());
  for (const threshold::BasicServerShare<B>& share : shares) {
    c.write_secret(prefix + "-share-" + std::to_string(share.index) + ".key",
                   FileKind::kThresholdShare, share.to_bytes(*c.p), rng);
  }
  std::printf("%zu-of-%zu threshold beacon set up via %s (%s): %s.tkey, "
              "%s.pub, %zu share files\n",
              cfg.k, cfg.n, dealer ? "trusted dealer" : "DKG",
              c.set.c_str(), prefix.c_str(), prefix.c_str(), shares.size());
  return 0;
}

template <class B>
int issue_partial(const Ctx<B>& c, const Envelope& in) {
  auto key =
      c.template load<threshold::BasicThresholdKey<B>>("tkey", FileKind::kThresholdKey);
  auto share = threshold::BasicServerShare<B>::from_bytes(*c.p, in.payload);
  require(share.index >= 1 && share.index <= key.config.n,
          "share index out of range for this threshold key");

  threshold::BasicThresholdScheme<B> ts(c.p);
  threshold::BasicPartialUpdate<B> partial = ts.issue_partial(share, tag_arg(c.args));
  require(ts.verify_partial(key, partial),
          "issue-partial: fresh partial failed its own pairing check "
          "(share does not match the threshold key?)");
  c.write(c.args.get("out"), FileKind::kPartialUpdate, partial.to_bytes());
  std::printf("partial update %zu/%zu issued for \"%s\" (%zu bytes)\n",
              partial.index, key.config.n, partial.tag.c_str(),
              partial.to_bytes().size());
  return 0;
}

// The set-up every fetch mode shares: each --remote HOST:PORT is one
// fetcher slot, in the order given, behind one SocketTransport with
// --timeout-ms. The fetcher checks replies against `server` and seeds
// its backoff jitter from `label`.
client::SocketTransport socket_transport(const Args& args) {
  std::vector<client::SocketTransport::Endpoint> endpoints;
  for (const std::string& hp : cli::split_commas(args.get("remote"))) {
    cli::HostPort parsed = cli::parse_host_port(hp, "--remote");
    endpoints.push_back({parsed.host, parsed.port});
  }
  require(!endpoints.empty(), "fetch: --remote needs at least one HOST:PORT");
  return client::SocketTransport(
      std::move(endpoints), parse_uint<int>(args.get_or("timeout-ms", "2000"),
                                            "--timeout-ms", 1));
}

template <class B>
struct SocketFetch {
  SocketFetch(const Ctx<B>& c, core::BasicServerPublicKey<B> server, const char* label,
              client::FetcherConfig cfg = {})
      : transport(socket_transport(c.args)),
        fetcher(core::BasicTreScheme<B>(c.p), std::move(server), transport, timeline,
                slots(transport.mirror_count()), to_bytes(label), cfg) {}

  static std::vector<size_t> slots(size_t n) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    return order;
  }

  client::SocketTransport transport;
  server::Timeline timeline{0};
  client::BasicUpdateFetcher<B> fetcher;
};

// fetch --threshold K: quorum collection over live tred endpoints. Every
// endpoint is one beacon node; the fetcher's RLC batch attributes forged
// partials to their exact share indices before aggregation.
template <class B>
int fetch_threshold(const Ctx<B>& c, const Envelope& in) {
  auto key = threshold::BasicThresholdKey<B>::from_bytes(*c.p, in.payload);
  const size_t want_k = parse_uint<size_t>(c.args.get("threshold"), "--threshold");
  require(want_k == key.config.k,
          "fetch: --threshold does not match the key's t (cross-check)");

  threshold::BasicThresholdScheme<B> ts(c.p);
  SocketFetch<B> net(c, key.as_server_public_key(), "tre-cli-threshold");

  const std::string tag = tag_arg(c.args);
  auto res = net.fetcher.fetch_threshold(ts, key, tag);
  if (!res.ok()) {
    std::fprintf(stderr,
                 "fetch: could not field %zu valid partials for \"%s\" "
                 "from %zu endpoints\n",
                 key.config.k, tag.c_str(), net.transport.mirror_count());
    return 1;
  }
  c.write(c.args.get("out"), FileKind::kUpdate, res->update.to_bytes());
  std::printf("update for \"%s\" aggregated from %zu partials and VERIFIED "
              "(%zu slots polled, %zu rejected",
              tag.c_str(), res->partials_used, res->slots_polled,
              res->rejected_parse + res->rejected_tag + res->rejected_dup +
                  res->rejected_sig);
  if (!res->byzantine_nodes.empty()) {
    std::printf("; Byzantine nodes:");
    for (size_t idx : res->byzantine_nodes) std::printf(" %zu", idx);
  }
  std::printf(")\n");
  return 0;
}

// ---- serve: the all-in-one daemon front end ----------------------------
// tred with an issuing convenience: --server-key/--tags signs updates at
// boot. Trust assumption 2 (the server never discloses I_T early) is
// enforced here with the WALL CLOCK: a tag that parses as a time
// specification still in the future is refused outright.

template <class B>
int serve_issue(const Ctx<B>& c, const Envelope& in, daemon::Store& store) {
  core::BasicTreScheme<B> scheme(c.p);
  auto [s, pub] = read_keypair<core::BasicServerPublicKey<B>>(c, in);
  store.set_server_key(c.set, pub.to_bytes());

  const std::int64_t now = static_cast<std::int64_t>(std::time(nullptr));
  for (const std::string& tag : cli::split_commas(c.args.get_or("tags", ""))) {
    if (auto spec = server::TimeSpec::parse(tag)) {
      require(spec->unix_seconds() <= now,
              "serve: refusing to issue an update for a FUTURE instant — the "
              "time server must never pre-disclose (trust assumption 2)");
    }
    core::BasicKeyUpdate<B> upd =
        scheme.issue_update(core::BasicServerKeyPair<B>{s, pub}, tag);
    auto r = store.put(tag, upd.to_bytes());
    require(r.ok(), "serve: conflicting update for the same tag");
  }
  // --pub is optional on this path (the public key came off the secret).
  if (c.args.has("pub")) c.read("pub", FileKind::kServerPub);
  return 0;
}

int cmd_serve(const Args& args) {
  auto store = std::make_shared<daemon::Store>();
  const std::vector<std::string> updates = cli::split_commas(args.get_or("updates", ""));
  if (args.get_or("server-key", "").empty()) {
    cli::load_store(*store, args.get("pub"), updates);
  } else {
    on_file(args, "server-key", FileKind::kServerKey,
            [&](const auto& c, const Envelope& in) { return serve_issue(c, in, *store); });
    // Pre-issued files can ride along with the issuing path too.
    cli::load_updates(*store, updates);
  }

  // Beacon-node serving: pre-issued partial updates ride the kGetPartial
  // lane (one partial per tag per node — this daemon IS one node).
  for (const std::string& path : cli::split_commas(args.get_or("partials", ""))) {
    Envelope part = cli::read_envelope(path, FileKind::kPartialUpdate);
    cli::require_same_set(part, store->server_key().first);
    auto r = store->put_partial(cli::partial_wire_tag(part.payload), part.payload);
    require(r.ok(), "serve: conflicting partial for the same tag");
  }

  cli::serve(store, args, "tre_cli serve");
  return 0;
}

// ---- fetch: the Byzantine trust gate over real sockets -----------------
// The same UpdateFetcher pipeline the simnet experiments harden — parse,
// tag check, pairing check, health-scored failover — pointed at live
// tred endpoints through a SocketTransport.

// Catch-up mode (--from/--to): page the daemon's archive through
// kGetRange and push every page through the batch-verified trust gate
// (one RLC pairing check per page instead of one per update; forged
// items are bisected out and dropped). Updates whose tags parse as
// instants inside [from, to] are written to --out-dir, one envelope per
// update, in archive order.
template <class B>
int fetch_range(const Ctx<B>& c, const Envelope& in) {
  require(c.args.has("from") && c.args.has("to"),
          "fetch: --from and --to must be given together");
  std::optional<server::TimeSpec> from = server::TimeSpec::parse(c.args.get("from"));
  std::optional<server::TimeSpec> to = server::TimeSpec::parse(c.args.get("to"));
  require(from.has_value(), "fetch: --from is not a canonical time string");
  require(to.has_value(), "fetch: --to is not a canonical time string");
  require(from->unix_seconds() <= to->unix_seconds(),
          "fetch: --from is after --to");
  const std::string out_dir = c.args.get("out-dir");
  const auto page_size = parse_uint<std::uint32_t>(c.args.get_or("page", "256"), "--page", 1);

  SocketFetch<B> net(c, core::BasicServerPublicKey<B>::from_bytes(*c.p, in.payload),
                     "tre-cli-catchup");
  // One mirror after another until one serves a full scan; forged pages
  // demote a mirror but never poison the output.
  client::BasicArchiveFetchResult<B> scan =
      net.fetcher.fetch_archive_verified(page_size);
  if (!scan.complete) {
    std::fprintf(stderr, "fetch: no mirror served a full archive scan\n");
    return 1;
  }
  size_t written = 0, skipped = 0;
  for (const core::BasicKeyUpdate<B>& u : scan.updates) {
    std::optional<server::TimeSpec> t = server::TimeSpec::parse(u.tag);
    if (!t || *t < *from || *to < *t) {
      ++skipped;
      continue;
    }
    char name[32];
    std::snprintf(name, sizeof name, "update-%06zu.bin", written);
    c.write(out_dir + "/" + name, FileKind::kUpdate, u.to_bytes());
    ++written;
  }
  std::printf("catch-up [%s, %s]: %zu updates fetched and VERIFIED "
              "(%zu outside range, %zu forged/damaged dropped)\n",
              from->canonical().c_str(), to->canonical().c_str(), written,
              skipped, scan.total_rejected());
  return 0;
}

template <class B>
int fetch(const Ctx<B>& c, const Envelope& in) {
  if (c.args.has("from") || c.args.has("to")) return fetch_range(c, in);
  client::FetcherConfig cfg;
  cfg.attempts_per_tag = parse_uint<size_t>(c.args.get_or("attempts", "8"), "--attempts");
  SocketFetch<B> net(c, core::BasicServerPublicKey<B>::from_bytes(*c.p, in.payload),
                     "tre-cli-fetch", cfg);

  std::string tag = tag_arg(c.args);
  std::optional<core::BasicKeyUpdate<B>> got;
  client::FetchStats stats;
  net.fetcher.fetch_verified({tag},
                             [&](const client::BasicFetchResult<B>& r) {
                               got = r.update;
                               stats = r.stats;
                             },
                             [&](const client::FetchStats& s) { stats = s; });
  // Socket replies land synchronously inside request(); the timeline only
  // drives the retry/backoff schedule, so advancing one tick at a time
  // runs the state machine to completion.
  while (net.fetcher.busy()) net.timeline.advance_by(1);

  if (!got) {
    std::fprintf(stderr,
                 "fetch: no verifiable update for \"%s\" (%zu attempts, "
                 "%zu rejected, %zu timeouts)\n",
                 tag.c_str(), stats.attempts, stats.total_rejected(),
                 stats.timeouts);
    return 1;
  }
  c.write(c.args.get("out"), FileKind::kUpdate, got->to_bytes());
  std::printf("update for \"%s\" fetched and VERIFIED (%zu attempts, "
              "%zu rejected)\n",
              got->tag.c_str(), stats.attempts, stats.total_rejected());
  return 0;
}

// ---- selftest: run the power-on KAT suite ------------------------------

int cmd_selftest() {
  selftest::ensure_registered();
  std::optional<selftest::Kat> fault;
  if (const char* env = std::getenv("TRE_SELFTEST_FAULT")) {
    fault = selftest::kat_from_name(env);
    if (!fault) {
      std::printf("selftest: unknown TRE_SELFTEST_FAULT \"%s\" — failing closed\n",
                  env);
      return 1;
    }
    std::printf("selftest: injecting fault into %s\n", selftest::kat_name(*fault));
  }
  selftest::Report report = selftest::run(fault);
  for (selftest::Kat kat : selftest::all_kats()) {
    bool failed = std::find(report.failed.begin(), report.failed.end(), kat) !=
                  report.failed.end();
    std::printf("  %-14s %s\n", selftest::kat_name(kat), failed ? "FAIL" : "ok");
  }
  std::printf("selftest: %zu passed, %zu failed — %s\n", report.passed.size(),
              report.failed.size(), report.ok() ? "OPERATIONAL" : "POISONED");
  return report.ok() ? 0 : 1;
}

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "params") return cmd_params();
  if (cmd == "selftest") return cmd_selftest();
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "server-keygen") {
    return on_flag(args, [](const auto& c) { return server_keygen(c); });
  }
  if (cmd == "threshold-setup") {
    return on_flag(args, [](const auto& c) { return threshold_setup(c); });
  }
  if (cmd == "user-keygen") {
    return on_file(args, "server-pub", FileKind::kServerPub,
                   [](const auto& c, const Envelope& in) { return user_keygen(c, in); });
  }
  if (cmd == "issue") {
    return on_file(args, "server-key", FileKind::kServerKey,
                   [](const auto& c, const Envelope& in) { return issue(c, in); });
  }
  if (cmd == "verify-update") {
    return on_file(args, "server-pub", FileKind::kServerPub,
                   [](const auto& c, const Envelope& in) { return verify_update(c, in); });
  }
  if (cmd == "encrypt") {
    return on_file(args, "server-pub", FileKind::kServerPub,
                   [](const auto& c, const Envelope& in) { return encrypt(c, in); });
  }
  if (cmd == "decrypt") {
    return on_file(args, "user-key", FileKind::kUserKey,
                   [](const auto& c, const Envelope& in) { return decrypt(c, in); });
  }
  if (cmd == "solve") {
    return on_file(args, "in", FileKind::kCiphertextHybrid,
                   [](const auto& c, const Envelope& in) { return solve(c, in); });
  }
  if (cmd == "issue-partial") {
    return on_file(args, "share", FileKind::kThresholdShare,
                   [](const auto& c, const Envelope& in) { return issue_partial(c, in); });
  }
  if (cmd == "fetch" && args.has("threshold")) {
    return on_file(args, "tkey", FileKind::kThresholdKey,
                   [](const auto& c, const Envelope& in) { return fetch_threshold(c, in); });
  }
  if (cmd == "fetch") {
    return on_file(args, "server-pub", FileKind::kServerPub,
                   [](const auto& c, const Envelope& in) { return fetch(c, in); });
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  try {
    Args args(argc, argv);
    int rc = dispatch(cmd, args);
    cli::dump_metrics(args);  // --metrics works with every command
    return rc;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "tre_cli %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
}
