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
// Backends: every command body is ONE template over the pairing backend.
// `--backend {tre512,bls381}` picks the curve at server-keygen time
// ("bls381" maps to the reserved set name "bls12-381"); downstream
// commands dispatch on the set name baked into their input files, so keys
// made on either curve flow through issue/encrypt/decrypt unchanged.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <optional>
#include <string>
#include <tuple>

#include "bls12/tre381.h"
#include "client/fetcher.h"
#include "client/socket_transport.h"
#include "common/health.h"
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
using cli::parse_envelope;
using cli::parse_u64;
using cli::read_envelope;
using cli::read_file;
using cli::write_envelope;
using cli::write_file;

// Reads a secret-key file, opening the keystore seal when present.
Envelope read_secret(const std::string& path, FileKind plain_kind,
                     FileKind sealed_kind, const std::string& password) {
  Envelope env = parse_envelope(path);
  if (env.kind == plain_kind) return env;
  require(env.kind == sealed_kind, "wrong file kind for this option");
  require(!password.empty(), "this key file is password-protected: pass --password");
  auto opened = keystore::open(env.payload, password);
  require(opened.has_value(), "wrong password or corrupted key file");
  env.payload = std::move(*opened);
  env.kind = plain_kind;
  return env;
}

// Release addressing: --tag takes a literal tag string, --round N the
// tlock-shaped round envelope (tag = "round:<N>", timeserver/round.h).
std::string tag_arg(const Args& args) {
  if (args.has("round")) {
    require(!args.has("tag"), "give --tag or --round, not both");
    return server::round_tag(cli::parse_u64(args.get("round"), "--round"));
  }
  return args.get("tag");
}

// Writes a secret-key file, sealed under `password` when one is given.
void write_secret(const std::string& path, FileKind plain_kind, FileKind sealed_kind,
                  const std::string& set_name, ByteSpan payload,
                  const std::string& password, tre::hashing::RandomSource& rng) {
  if (password.empty()) {
    write_envelope(path, plain_kind, set_name, payload);
  } else {
    write_envelope(path, sealed_kind, set_name,
                   keystore::seal(payload, password, rng));
  }
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

std::shared_ptr<const params::GdhParams> load_set(const std::string& name) {
  require(name != kBls381Set, "internal: bls12-381 files take the 381 path");
  return params::load(name);
}

// An optional --backend on a file-driven command is a cross-check, not a
// selector: the file's set name is authoritative.
void check_backend_flag(const Args& args, const std::string& set_name) {
  std::string b = args.get_or("backend", "");
  if (b.empty()) return;
  require(b == "tre512" || b == "bls381", "unknown --backend (use tre512 or bls381)");
  require((b == "bls381") == (set_name == kBls381Set),
          "--backend does not match the backend of the input files");
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

// ---- backend-generic command bodies -----------------------------------
// Each body exists once; the dispatchers below instantiate it for the
// type-1 curve and BLS12-381.

// Secret-key payloads: fixed-width scalar || the public key's own wire.
template <class B>
Bytes keypair_payload(const typename B::Params& p, const core::Scalar& secret,
                      ByteSpan pub) {
  return wire::Writer().raw(secret.to_bytes_be(B::scalar_bytes(p))).raw(pub).take();
}

template <class B, class Pub>
std::pair<core::Scalar, Pub> read_keypair(const typename B::Params& p, ByteSpan payload) {
  wire::Reader r(payload);
  ByteSpan secret = r.raw(B::scalar_bytes(p));
  ByteSpan pub = r.rest();
  require(r.ok(), "corrupt key file");
  return {core::Scalar::from_bytes_be(secret), Pub::from_bytes(p, pub)};
}

template <class B>
int cmd_server_keygen_g(std::shared_ptr<const typename B::Params> p,
                        const std::string& set_name, const Args& args) {
  core::BasicTreScheme<B> scheme(p);
  hashing::SystemRandom rng;
  core::BasicServerKeyPair<B> keys = scheme.server_keygen(rng);
  write_secret(args.get("key"), FileKind::kServerKey, FileKind::kServerKeySealed,
               set_name, keypair_payload<B>(*p, keys.s, keys.pub.to_bytes()),
               args.get_or("password", ""), rng);
  write_envelope(args.get("pub"), FileKind::kServerPub, set_name, keys.pub.to_bytes());
  std::printf("server key pair written (%s)\n", set_name.c_str());
  return 0;
}

template <class B>
int cmd_user_keygen_g(std::shared_ptr<const typename B::Params> p,
                      const std::string& set_name, const Envelope& server_env,
                      const Args& args) {
  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);
  core::BasicTreScheme<B> scheme(p);
  hashing::SystemRandom rng;
  core::BasicUserKeyPair<B> keys = scheme.user_keygen(server, rng);
  write_secret(args.get("key"), FileKind::kUserKey, FileKind::kUserKeySealed, set_name,
               keypair_payload<B>(*p, keys.a, keys.pub.to_bytes()),
               args.get_or("password", ""), rng);
  write_envelope(args.get("pub"), FileKind::kUserPub, set_name, keys.pub.to_bytes());
  std::printf("user key pair written, bound to the server key (%s)\n", set_name.c_str());
  return 0;
}

template <class B>
int cmd_issue_g(std::shared_ptr<const typename B::Params> p,
                const std::string& set_name, const Envelope& env, const Args& args) {
  core::BasicTreScheme<B> scheme(p);
  auto [s, pub] = read_keypair<B, core::BasicServerPublicKey<B>>(*p, env.payload);
  core::BasicKeyUpdate<B> upd =
      scheme.issue_update(core::BasicServerKeyPair<B>{s, pub}, tag_arg(args));
  write_envelope(args.get("out"), FileKind::kUpdate, set_name, upd.to_bytes());
  std::printf("update issued for \"%s\" (%zu bytes)\n", upd.tag.c_str(),
              upd.to_bytes().size());
  return 0;
}

template <class B>
int cmd_verify_update_g(std::shared_ptr<const typename B::Params> p,
                        const std::string& set_name, const Envelope& server_env,
                        const Args& args) {
  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);
  Envelope env = read_envelope(args.get("update"), FileKind::kUpdate);
  require(env.set_name == set_name, "update and server key use different parameter sets");
  core::BasicTreScheme<B> scheme(p);
  core::BasicKeyUpdate<B> upd = core::BasicKeyUpdate<B>::from_bytes(*p, env.payload);
  bool ok = scheme.verify_update(server, upd);
  std::printf("update for \"%s\": %s\n", upd.tag.c_str(), ok ? "VALID" : "INVALID");
  return ok ? 0 : 1;
}

// --mode: a bare flavour or "sealed[-flavour]" ("sealed" alone is FO).
struct CtMode {
  core::Mode mode;
  bool tagged;  // kind 11, the mode-tagged wire; else the flavour's own kind
};

CtMode parse_ct_mode(const std::string& arg) {
  std::string flavour = arg;
  bool tagged = false;
  if (arg == "sealed") {
    flavour = "fo";
    tagged = true;
  } else if (arg.rfind("sealed-", 0) == 0) {
    flavour = arg.substr(7);
    tagged = true;
  }
  for (core::Mode m : {core::Mode::kBasic, core::Mode::kFo, core::Mode::kReact}) {
    if (flavour == core::mode_name(m)) return {m, tagged};
  }
  throw Error("unknown --mode (use basic, fo, react or sealed[-flavour])");
}

// File kinds 6-8 hold one flavour each: the sealed wire without its mode
// byte, which is the flavour's own encoding.
FileKind bare_kind(core::Mode m) {
  switch (m) {
    case core::Mode::kBasic: return FileKind::kCiphertextBasic;
    case core::Mode::kFo: return FileKind::kCiphertextFo;
    default: return FileKind::kCiphertextReact;
  }
}

std::optional<core::Mode> bare_mode(FileKind kind) {
  for (core::Mode m : {core::Mode::kBasic, core::Mode::kFo, core::Mode::kReact}) {
    if (kind == bare_kind(m)) return m;
  }
  return std::nullopt;
}

template <class B>
int cmd_encrypt_g(std::shared_ptr<const typename B::Params> p,
                  const std::string& set_name, const Envelope& server_env,
                  const Args& args) {
  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);
  Envelope user_env = read_envelope(args.get("user-pub"), FileKind::kUserPub);
  require(user_env.set_name == set_name, "user and server keys use different sets");
  core::BasicUserPublicKey<B> user =
      core::BasicUserPublicKey<B>::from_bytes(*p, user_env.payload);
  core::BasicTreScheme<B> scheme(p);
  hashing::SystemRandom rng;
  Bytes msg = read_file(args.get("in"));
  std::string tag = tag_arg(args);
  const std::string mode_arg = args.get_or("mode", "fo");
  const CtMode mode = parse_ct_mode(mode_arg);

  // --fallback W adds the time-lock lane: a hybrid envelope whose
  // payload key also sits behind W sequential squarings, openable with
  // `solve` when the server never publishes the update.
  std::string fallback = args.get_or("fallback", "");
  if (!fallback.empty()) {
    timelock::FallbackParams fb;
    fb.squarings = parse_u64(fallback, "--fallback");
    fb.modulus_bits = static_cast<size_t>(
        parse_u64(args.get_or("fallback-modulus-bits", "1024"),
                  "--fallback-modulus-bits"));
    timelock::BasicHybridEnvelope<B> env =
        timelock::seal_hybrid(scheme, mode.mode, msg, user, server, tag, fb, rng);
    Bytes wire = env.to_bytes();
    write_envelope(args.get("out"), FileKind::kCiphertextHybrid, set_name, wire);
    std::printf(
        "%zu bytes encrypted for release at \"%s\" (hybrid %s mode, "
        "%llu-squaring fallback, %zu bytes)\n",
        msg.size(), tag.c_str(), core::mode_name(mode.mode),
        static_cast<unsigned long long>(fb.squarings), wire.size());
    return 0;
  }

  Bytes payload = scheme.seal(mode.mode, msg, user, server, tag, rng).to_bytes();
  FileKind kind = FileKind::kCiphertextSealed;
  if (!mode.tagged) {
    kind = bare_kind(mode.mode);
    payload.erase(payload.begin());
  }
  write_envelope(args.get("out"), kind, set_name, payload);
  std::printf("%zu bytes encrypted for release at \"%s\" (%s mode, %zu bytes)\n",
              msg.size(), tag.c_str(), mode_arg.c_str(), payload.size());
  return 0;
}

template <class B>
int cmd_decrypt_g(std::shared_ptr<const typename B::Params> p,
                  const std::string& set_name, const Envelope& key_env,
                  const Args& args) {
  core::BasicTreScheme<B> scheme(p);
  const core::Scalar a =
      read_keypair<B, core::BasicUserPublicKey<B>>(*p, key_env.payload).first;

  Envelope upd_env = read_envelope(args.get("update"), FileKind::kUpdate);
  require(upd_env.set_name == set_name, "update uses a different parameter set");
  core::BasicKeyUpdate<B> upd = core::BasicKeyUpdate<B>::from_bytes(*p, upd_env.payload);

  Envelope ct_env = parse_envelope(args.get("in"));
  require(ct_env.set_name == set_name, "ciphertext uses a different parameter set");
  // The FO flavour's re-encryption check needs the server key, so open
  // takes it for every flavour.
  Envelope server_env = read_envelope(args.get("server-pub"), FileKind::kServerPub);
  require(server_env.set_name == set_name, "server key uses a different parameter set");
  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);

  std::optional<Bytes> out;
  std::string what;
  if (ct_env.kind == FileKind::kCiphertextHybrid) {
    // Server lane of a hybrid envelope: the epoch update opens it the
    // normal way (the time-lock lane is `solve`'s job).
    timelock::BasicHybridEnvelope<B> env =
        timelock::BasicHybridEnvelope<B>::from_bytes(*p, ct_env.payload);
    out = timelock::open_hybrid(scheme, env, a, upd, server);
    what = "hybrid envelope, server lane";
  } else {
    // The file kind names the flavour: kinds 6-8 get their mode byte
    // back, kind 11 carries it.
    Bytes wire = ct_env.payload;
    if (std::optional<core::Mode> m = bare_mode(ct_env.kind)) {
      wire.insert(wire.begin(), static_cast<std::uint8_t>(*m));
    } else {
      require(ct_env.kind == FileKind::kCiphertextSealed,
              "wrong file kind for this option");
    }
    core::BasicSealedCiphertext<B> sc =
        core::BasicSealedCiphertext<B>::from_bytes(*p, wire);
    out = scheme.open(sc, a, upd, server);
    what = std::string(core::mode_name(sc.mode())) + " mode";
  }
  require(out.has_value(), "decryption failed: wrong key/update or tampered ciphertext");
  write_file(args.get("out"), *out);
  std::printf("%zu bytes decrypted (%s)\n", out->size(), what.c_str());
  return 0;
}

// ---- solve: grind the time-lock lane -----------------------------------
// Opens a hybrid ciphertext WITHOUT the server: restore (or start) the
// checkpointed solver, advance up to --budget squarings saving a
// checkpoint every --checkpoint-every, and unseal once done. Exit 3 when
// the budget ran out first — rerun with the same --checkpoint to resume.

template <class B>
int cmd_solve_g(std::shared_ptr<const typename B::Params> p,
                const std::string& /*set_name*/, const Envelope& ct_env,
                const Args& args) {
  timelock::BasicHybridEnvelope<B> env =
      timelock::BasicHybridEnvelope<B>::from_bytes(*p, ct_env.payload);

  std::string ckpt_path = args.get_or("checkpoint", "");
  std::uint64_t budget = parse_u64(args.get_or("budget", "0"), "--budget");
  std::uint64_t every =
      parse_u64(args.get_or("checkpoint-every", "65536"), "--checkpoint-every");
  require(every >= 1, "--checkpoint-every: must be at least 1");

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
  write_file(args.get("out"), *out);
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
int cmd_threshold_setup_g(std::shared_ptr<const typename B::Params> p,
                          const std::string& set_name, const Args& args) {
  threshold::ThresholdConfig cfg;
  cfg.n = static_cast<size_t>(parse_u64(args.get("n"), "--n"));
  cfg.k = static_cast<size_t>(parse_u64(args.get("t"), "--t"));
  require(cfg.k >= 1 && cfg.k <= cfg.n, "threshold-setup: need 1 <= t <= n");
  const std::string prefix = args.get("out-prefix");
  hashing::SystemRandom rng;

  threshold::BasicThresholdKey<B> key;
  std::vector<threshold::BasicServerShare<B>> shares;
  const bool dealer = args.get_or("dealer", "0") == "1";
  if (dealer) {
    threshold::BasicThresholdScheme<B> ts(p);
    std::tie(key, shares) = ts.setup(cfg, rng);
  } else {
    auto dkg = threshold::run_dkg<B>(p, cfg, rng);
    require(dkg.ok(), "threshold-setup: DKG failed (complaints disqualified "
                      "too many dealers)");
    key = std::move(dkg->key);
    shares = std::move(dkg->shares);
  }

  write_envelope(prefix + ".tkey", FileKind::kThresholdKey, set_name,
                 key.to_bytes());
  // The group key doubles as an ordinary server-pub: every existing
  // command (encrypt, verify-update, fetch) binds to it unchanged.
  write_envelope(prefix + ".pub", FileKind::kServerPub, set_name,
                 key.group.to_bytes());
  const std::string password = args.get_or("password", "");
  for (const threshold::BasicServerShare<B>& share : shares) {
    write_secret(prefix + "-share-" + std::to_string(share.index) + ".key",
                 FileKind::kThresholdShare, FileKind::kThresholdShareSealed,
                 set_name, share.to_bytes(*p), password, rng);
  }
  std::printf("%zu-of-%zu threshold beacon set up via %s (%s): %s.tkey, "
              "%s.pub, %zu share files\n",
              cfg.k, cfg.n, dealer ? "trusted dealer" : "DKG",
              set_name.c_str(), prefix.c_str(), prefix.c_str(), shares.size());
  return 0;
}

template <class B>
int cmd_issue_partial_g(std::shared_ptr<const typename B::Params> p,
                        const std::string& set_name, const Envelope& share_env,
                        const Args& args) {
  Envelope key_env = read_envelope(args.get("tkey"), FileKind::kThresholdKey);
  require(key_env.set_name == set_name,
          "share and threshold key use different parameter sets");
  threshold::BasicThresholdKey<B> key =
      threshold::BasicThresholdKey<B>::from_bytes(*p, key_env.payload);
  threshold::BasicServerShare<B> share =
      threshold::BasicServerShare<B>::from_bytes(*p, share_env.payload);
  require(share.index >= 1 && share.index <= key.config.n,
          "share index out of range for this threshold key");

  threshold::BasicThresholdScheme<B> ts(p);
  threshold::BasicPartialUpdate<B> partial =
      ts.issue_partial(share, tag_arg(args));
  require(ts.verify_partial(key, partial),
          "issue-partial: fresh partial failed its own pairing check "
          "(share does not match the threshold key?)");
  write_envelope(args.get("out"), FileKind::kPartialUpdate, set_name,
                 partial.to_bytes());
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
  int timeout_ms = static_cast<int>(
      parse_u64(args.get_or("timeout-ms", "2000"), "--timeout-ms"));
  return client::SocketTransport(std::move(endpoints), timeout_ms);
}

template <class B>
struct SocketFetch {
  SocketFetch(std::shared_ptr<const typename B::Params> p,
              core::BasicServerPublicKey<B> server, const Args& args,
              const char* label, client::FetcherConfig cfg = {})
      : transport(socket_transport(args)),
        fetcher(core::BasicTreScheme<B>(std::move(p)), std::move(server),
                transport, timeline, slots(transport.mirror_count()),
                to_bytes(label), cfg) {}

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
int cmd_fetch_threshold_g(std::shared_ptr<const typename B::Params> p,
                          const std::string& set_name,
                          const Envelope& key_env, const Args& args) {
  threshold::BasicThresholdKey<B> key =
      threshold::BasicThresholdKey<B>::from_bytes(*p, key_env.payload);
  const size_t want_k =
      static_cast<size_t>(parse_u64(args.get("threshold"), "--threshold"));
  require(want_k == key.config.k,
          "fetch: --threshold does not match the key's t (cross-check)");

  threshold::BasicThresholdScheme<B> ts(p);
  SocketFetch<B> net(p, key.as_server_public_key(), args, "tre-cli-threshold");

  const std::string tag = tag_arg(args);
  auto res = net.fetcher.fetch_threshold(ts, key, tag);
  if (!res.ok()) {
    std::fprintf(stderr,
                 "fetch: could not field %zu valid partials for \"%s\" "
                 "from %zu endpoints\n",
                 key.config.k, tag.c_str(), net.transport.mirror_count());
    return 1;
  }
  write_envelope(args.get("out"), FileKind::kUpdate, set_name,
                 res->update.to_bytes());
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

// Runs `fn<B>(params, set_name)` for the backend `set_name` selects.
template <class Fn>
int with_backend(const std::string& set_name, const Args& args, Fn&& fn) {
  check_backend_flag(args, set_name);
  if (set_name == kBls381Set) {
    return fn(bls12::Bls381Backend{}, bls12::Bls12Ctx::get());
  }
  return fn(core::Tre512Backend{}, load_set(set_name));
}

// ---- serve: the all-in-one daemon front end ----------------------------
// tred with an issuing convenience: --server-key/--tags signs updates at
// boot. Trust assumption 2 (the server never discloses I_T early) is
// enforced here with the WALL CLOCK: a tag that parses as a time
// specification still in the future is refused outright.

template <class B>
void serve_issue_g(std::shared_ptr<const typename B::Params> p,
                   const std::string& set_name, const Envelope& key_env,
                   const std::vector<std::string>& tags,
                   daemon::Store& store) {
  core::BasicTreScheme<B> scheme(p);
  auto [s, pub] = read_keypair<B, core::BasicServerPublicKey<B>>(*p, key_env.payload);
  store.set_server_key(set_name, pub.to_bytes());

  const std::int64_t now = static_cast<std::int64_t>(std::time(nullptr));
  for (const std::string& tag : tags) {
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
}

int cmd_serve(const Args& args) {
  auto store = std::make_shared<daemon::Store>();

  std::string key_path = args.get_or("server-key", "");
  if (!key_path.empty()) {
    Envelope env = read_secret(key_path, FileKind::kServerKey,
                               FileKind::kServerKeySealed,
                               args.get_or("password", ""));
    std::vector<std::string> tags = cli::split_commas(args.get_or("tags", ""));
    with_backend(env.set_name, args, [&](auto b, auto p) {
      serve_issue_g<decltype(b)>(p, env.set_name, env, tags, *store);
      return 0;
    });
    // --pub is optional on this path (the public key came off the secret).
    if (args.has("pub")) {
      Envelope pub = read_envelope(args.get("pub"), FileKind::kServerPub);
      require(pub.set_name == env.set_name,
              "serve: --pub and --server-key use different parameter sets");
    }
  } else {
    cli::load_store(*store, args.get("pub"),
                    cli::split_commas(args.get_or("updates", "")));
  }
  if (!key_path.empty() && args.has("updates")) {
    // Pre-issued files can ride along with the issuing path too.
    auto [set_name, pub_wire] = store->server_key();
    for (const std::string& path : cli::split_commas(args.get("updates"))) {
      Envelope upd = read_envelope(path, FileKind::kUpdate);
      require(upd.set_name == set_name,
              "update and server key use different parameter sets");
      auto r = store->put(cli::update_wire_tag(upd.payload), upd.payload);
      require(r.ok(), "conflicting update for the same tag");
    }
  }

  // Beacon-node serving: pre-issued partial updates ride the kGetPartial
  // lane (one partial per tag per node — this daemon IS one node).
  for (const std::string& path : cli::split_commas(args.get_or("partials", ""))) {
    Envelope part = read_envelope(path, FileKind::kPartialUpdate);
    auto [set_name, pub_wire] = store->server_key();
    require(pub_wire.empty() || part.set_name == set_name,
            "partial and server key use different parameter sets");
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
int cmd_fetch_range_g(std::shared_ptr<const typename B::Params> p,
                      const std::string& set_name, const Envelope& server_env,
                      const Args& args) {
  require(args.has("from") && args.has("to"),
          "fetch: --from and --to must be given together");
  std::optional<server::TimeSpec> from = server::TimeSpec::parse(args.get("from"));
  std::optional<server::TimeSpec> to = server::TimeSpec::parse(args.get("to"));
  require(from.has_value(), "fetch: --from is not a canonical time string");
  require(to.has_value(), "fetch: --to is not a canonical time string");
  require(from->unix_seconds() <= to->unix_seconds(),
          "fetch: --from is after --to");
  const std::string out_dir = args.get("out-dir");

  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);
  SocketFetch<B> net(p, std::move(server), args, "tre-cli-catchup");
  const std::uint32_t page_size = static_cast<std::uint32_t>(
      parse_u64(args.get_or("page", "256"), "--page"));

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
    write_envelope(out_dir + "/" + name, FileKind::kUpdate, set_name,
                   u.to_bytes());
    ++written;
  }
  std::printf("catch-up [%s, %s]: %zu updates fetched and VERIFIED "
              "(%zu outside range, %zu forged/damaged dropped)\n",
              from->canonical().c_str(), to->canonical().c_str(), written,
              skipped, scan.total_rejected());
  return 0;
}

template <class B>
int cmd_fetch_g(std::shared_ptr<const typename B::Params> p,
                const std::string& set_name, const Envelope& server_env,
                const Args& args) {
  if (args.has("from") || args.has("to")) {
    return cmd_fetch_range_g<B>(std::move(p), set_name, server_env, args);
  }
  core::BasicServerPublicKey<B> server =
      core::BasicServerPublicKey<B>::from_bytes(*p, server_env.payload);
  client::FetcherConfig cfg;
  cfg.attempts_per_tag = static_cast<size_t>(
      parse_u64(args.get_or("attempts", "8"), "--attempts"));
  SocketFetch<B> net(p, std::move(server), args, "tre-cli-fetch", cfg);

  std::string tag = tag_arg(args);
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
  write_envelope(args.get("out"), FileKind::kUpdate, set_name, got->to_bytes());
  std::printf("update for \"%s\" fetched and VERIFIED (%zu attempts, "
              "%zu rejected)\n",
              got->tag.c_str(), stats.attempts, stats.total_rejected());
  return 0;
}

int cmd_fetch(const Args& args) {
  if (args.has("threshold")) {
    Envelope env = read_envelope(args.get("tkey"), FileKind::kThresholdKey);
    return with_backend(env.set_name, args, [&](auto b, auto p) {
      return cmd_fetch_threshold_g<decltype(b)>(p, env.set_name, env, args);
    });
  }
  Envelope env = read_envelope(args.get("server-pub"), FileKind::kServerPub);
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_fetch_g<decltype(b)>(p, env.set_name, env, args);
  });
}

// ---- selftest: run the power-on KAT suite ------------------------------

int cmd_selftest(const Args&) {
  selftest::ensure_registered();
  if (!health::enabled()) {
    std::printf("selftest: built with TRE_SELFTEST=OFF — gate disabled\n");
  }
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

// ---- dispatchers -------------------------------------------------------
// server-keygen picks the backend from --backend; every other command
// reads it off its input files' set name.

int cmd_server_keygen(const Args& args) {
  std::string backend = args.get_or("backend", "tre512");
  if (backend == "bls381") {
    return cmd_server_keygen_g<bls12::Bls381Backend>(bls12::Bls12Ctx::get(),
                                                     kBls381Set, args);
  }
  require(backend == "tre512", "unknown --backend (use tre512 or bls381)");
  auto p = load_set(args.get_or("set", "tre-512"));
  return cmd_server_keygen_g<core::Tre512Backend>(p, p->name, args);
}

int cmd_threshold_setup(const Args& args) {
  std::string backend = args.get_or("backend", "tre512");
  if (backend == "bls381") {
    return cmd_threshold_setup_g<bls12::Bls381Backend>(bls12::Bls12Ctx::get(),
                                                       kBls381Set, args);
  }
  require(backend == "tre512", "unknown --backend (use tre512 or bls381)");
  auto p = load_set(args.get_or("set", "tre-512"));
  return cmd_threshold_setup_g<core::Tre512Backend>(p, p->name, args);
}

int cmd_issue_partial(const Args& args) {
  Envelope env = read_secret(args.get("share"), FileKind::kThresholdShare,
                             FileKind::kThresholdShareSealed,
                             args.get_or("password", ""));
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_issue_partial_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_user_keygen(const Args& args) {
  Envelope env = read_envelope(args.get("server-pub"), FileKind::kServerPub);
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_user_keygen_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_issue(const Args& args) {
  Envelope env = read_secret(args.get("server-key"), FileKind::kServerKey,
                             FileKind::kServerKeySealed, args.get_or("password", ""));
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_issue_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_verify_update(const Args& args) {
  Envelope env = read_envelope(args.get("server-pub"), FileKind::kServerPub);
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_verify_update_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_encrypt(const Args& args) {
  Envelope env = read_envelope(args.get("server-pub"), FileKind::kServerPub);
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_encrypt_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_decrypt(const Args& args) {
  Envelope env = read_secret(args.get("user-key"), FileKind::kUserKey,
                             FileKind::kUserKeySealed, args.get_or("password", ""));
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_decrypt_g<decltype(b)>(p, env.set_name, env, args);
  });
}

int cmd_solve(const Args& args) {
  Envelope env = read_envelope(args.get("in"), FileKind::kCiphertextHybrid);
  return with_backend(env.set_name, args, [&](auto b, auto p) {
    return cmd_solve_g<decltype(b)>(p, env.set_name, env, args);
  });
}

}  // namespace

namespace {

int dispatch(const std::string& cmd, const Args& args) {
  if (cmd == "params") return cmd_params();
  if (cmd == "server-keygen") return cmd_server_keygen(args);
  if (cmd == "user-keygen") return cmd_user_keygen(args);
  if (cmd == "issue") return cmd_issue(args);
  if (cmd == "verify-update") return cmd_verify_update(args);
  if (cmd == "encrypt") return cmd_encrypt(args);
  if (cmd == "decrypt") return cmd_decrypt(args);
  if (cmd == "solve") return cmd_solve(args);
  if (cmd == "threshold-setup") return cmd_threshold_setup(args);
  if (cmd == "issue-partial") return cmd_issue_partial(args);
  if (cmd == "selftest") return cmd_selftest(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "fetch") return cmd_fetch(args);
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
