// Shared plumbing for the command-line tools (tre_cli, tred): the TRE1
// file envelope, option parsing, the helpers that load served artifacts
// into a daemon store, and the serve loop both tools run. Header-only —
// these are tools, not library surface.
//
// Files are self-describing: a 4-byte magic, a type byte, the parameter
// set name, then the payload, so mixing parameter sets or file kinds is
// caught before any cryptography runs.
#pragma once

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "common/bytes.h"
#include "common/error.h"
#include "common/wire.h"
#include "daemon/daemon.h"
#include "daemon/store.h"
#include "obs/metrics.h"

namespace tre::cli {

constexpr std::string_view kEnvelopeMagic = "TRE1";

// The set name that routes an envelope to the BLS12-381 backend; type-1
// envelopes carry a params::available() name instead.
constexpr const char* kBls381Set = "bls12-381";

enum class FileKind : std::uint8_t {
  kServerKey = 1,
  kServerPub = 2,
  kUserKey = 3,
  kUserPub = 4,
  kUpdate = 5,
  kCiphertextBasic = 6,
  kCiphertextFo = 7,
  kCiphertextReact = 8,
  kServerKeySealed = 9,   // keystore-encrypted under --password
  kUserKeySealed = 10,
  kCiphertextSealed = 11, // mode-tagged core::SealedCiphertext wire
  kCiphertextHybrid = 12, // timelock::HybridEnvelope (server OR puzzle lane)
  kThresholdKey = 13,     // threshold::BasicThresholdKey wire (public)
  kThresholdShare = 14,   // threshold::BasicServerShare wire (SECRET)
  kThresholdShareSealed = 15,  // keystore-encrypted under --password
  kPartialUpdate = 16,    // threshold::BasicPartialUpdate wire
};

struct Envelope {
  FileKind kind;
  std::string set_name;
  Bytes payload;
};

inline Bytes read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open input file");
  return Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

inline void write_file(const std::string& path, ByteSpan data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  require(out.good(), "cannot open output file");
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  require(out.good(), "short write");
}

/// File: magic || kind byte || u8 set-name length || set name || payload.
inline Bytes envelope_bytes(FileKind kind, const std::string& set_name,
                            ByteSpan payload) {
  return wire::Writer()
      .raw(kEnvelopeMagic)
      .u8(static_cast<std::uint8_t>(kind))
      .u8(set_name.size())
      .raw(set_name)
      .raw(payload)
      .take();
}

inline void write_envelope(const std::string& path, FileKind kind,
                           const std::string& set_name, ByteSpan payload) {
  write_file(path, envelope_bytes(kind, set_name, payload));
}

inline Envelope parse_envelope_bytes(ByteSpan raw) {
  wire::Reader r(raw);
  ByteSpan magic = r.raw(kEnvelopeMagic.size());
  require(r.ok() && std::equal(magic.begin(), magic.end(), kEnvelopeMagic.begin()),
          "not a tre_cli file (bad magic)");
  const auto kind = static_cast<FileKind>(r.u8());
  ByteSpan name = r.raw(r.u8());
  ByteSpan payload = r.rest();
  require(r.ok(), "truncated file header");
  return Envelope{kind, std::string(name.begin(), name.end()), wire::owned(payload)};
}

inline Envelope parse_envelope(const std::string& path) {
  return parse_envelope_bytes(read_file(path));
}

inline Envelope read_envelope(const std::string& path, FileKind expected) {
  Envelope env = parse_envelope(path);
  require(env.kind == expected, "wrong file kind for this option");
  return env;
}

/// Every input file of one command must carry the same parameter set.
inline void require_same_set(const Envelope& env, const std::string& set_name) {
  require(env.set_name == set_name, "input files use different parameter sets");
}

class Args {
 public:
  Args(int argc, char** argv, int first = 2) {
    for (int i = first; i < argc; ++i) {
      std::string key = argv[i];
      require(key.size() > 2 && key.rfind("--", 0) == 0, "options look like --name value");
      require(i + 1 < argc, "missing value for option");
      values_[key.substr(2)] = argv[++i];
    }
  }

  std::string get(const std::string& name) const {
    auto it = values_.find(name);
    require(it != values_.end(), "missing required option (see usage in --help)");
    return it->second;
  }

  std::string get_or(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }

  bool has(const std::string& name) const { return values_.count(name) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Parses a decimal option value into T, refusing any value outside
/// [min, the largest T]; `what` names the option in the error.
template <class T = std::uint64_t>
T parse_uint(const std::string& s, const char* what, T min = 0) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    throw Error(std::string(what) + ": expected a decimal number");
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0' ||
      v < static_cast<unsigned long long>(min) ||
      v > static_cast<unsigned long long>(std::numeric_limits<T>::max()))
    throw Error(std::string(what) + ": number out of range");
  return static_cast<T>(v);
}

/// "HOST:PORT" -> (host, port); host may be omitted ("“:7001" or "7001").
struct HostPort {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

inline HostPort parse_host_port(const std::string& s, const char* what) {
  HostPort hp;
  std::string port_str = s;
  size_t colon = s.rfind(':');
  if (colon != std::string::npos) {
    if (colon > 0) hp.host = s.substr(0, colon);
    port_str = s.substr(colon + 1);
  }
  hp.port = parse_uint<std::uint16_t>(port_str, what, 1);
  return hp;
}

/// Splits "a,b,c" into parts, skipping empties.
inline std::vector<std::string> split_commas(const std::string& s) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t comma = s.find(',', start);
    if (comma == std::string::npos) comma = s.size();
    if (comma > start) out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

/// Tag of a KeyUpdate wire, read from its leading length-prefixed tag
/// field, which both backends share by construction.
inline std::string update_wire_tag(ByteSpan update) {
  wire::Reader r(update);
  std::string tag = r.str16();
  require(r.ok(), "update wire too short for its tag");
  return tag;
}

/// Tag of a PartialUpdate wire (u16 index || u16 tag len || tag || point)
/// without parsing the point — both backends share the layout.
inline std::string partial_wire_tag(ByteSpan partial) {
  wire::Reader r(partial);
  r.u16();
  std::string tag = r.str16();
  require(r.ok(), "partial wire too short for its tag");
  return tag;
}

/// Loads update envelopes into a store whose server key is set. Each is
/// archived under its envelope PAYLOAD, the exact KeyUpdate wire a
/// fetcher will parse, and must carry the server key's parameter set.
inline void load_updates(daemon::Store& store, const std::vector<std::string>& paths) {
  const std::string set_name = store.server_key().first;
  for (const std::string& path : paths) {
    Envelope upd = read_envelope(path, FileKind::kUpdate);
    require_same_set(upd, set_name);
    auto r = store.put(update_wire_tag(upd.payload), upd.payload);
    require(r.ok(), "conflicting update for the same tag");
  }
}

/// The serving surface for tred / tre_cli serve: a server-pub envelope
/// plus update envelopes.
inline void load_store(daemon::Store& store, const std::string& pub_path,
                       const std::vector<std::string>& update_paths) {
  Envelope pub = read_envelope(pub_path, FileKind::kServerPub);
  store.set_server_key(pub.set_name, pub.payload);
  load_updates(store, update_paths);
}

// The daemon the serve loop is running, for the signal handler.
inline daemon::Daemon* g_serving = nullptr;

inline void stop_serving(int) {
  if (g_serving != nullptr) g_serving->stop();  // async-signal-safe by contract
}

/// The serve loop of `tred` and `tre_cli serve`: --bind, --port,
/// --max-conns and --idle-timeout-ms configure the daemon; once it
/// listens, --port-file receives the bound port as decimal text (what
/// scripted callers wait on); SIGINT/SIGTERM stop the loop. `prog`
/// prefixes the start and shutdown lines.
inline void serve(std::shared_ptr<daemon::Store> store, const Args& args,
                  const char* prog) {
  daemon::DaemonConfig cfg;
  cfg.bind_address = args.get_or("bind", "127.0.0.1");
  cfg.port = parse_uint<std::uint16_t>(args.get_or("port", "0"), "--port");
  cfg.max_conns = parse_uint<size_t>(args.get_or("max-conns", "4096"), "--max-conns");
  cfg.idle_timeout_ms = parse_uint<std::int64_t>(args.get_or("idle-timeout-ms", "30000"),
                                                 "--idle-timeout-ms");

  daemon::Daemon d(store, cfg);
  g_serving = &d;
  std::signal(SIGINT, stop_serving);
  std::signal(SIGTERM, stop_serving);
  std::signal(SIGPIPE, SIG_IGN);

  std::string port_file = args.get_or("port-file", "");
  if (!port_file.empty()) {
    write_file(port_file, to_bytes(std::to_string(d.port()) + "\n"));
  }
  std::printf("%s: serving %zu updates on %s:%u (max %zu conns)\n", prog, store->size(),
              cfg.bind_address.c_str(), d.port(), cfg.max_conns);
  std::fflush(stdout);

  d.run();
  g_serving = nullptr;

  daemon::Daemon::Stats s = d.stats();
  std::printf("%s: shutting down — %llu accepted, %llu requests, "
              "%llu shed, %llu bad frames\n",
              prog, static_cast<unsigned long long>(s.accepted),
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.shed),
              static_cast<unsigned long long>(s.bad_frames));
}

/// --metrics FILE: writes the global registry snapshot as JSON (FILE =
/// '-' writes to stdout).
inline void dump_metrics(const Args& args) {
  std::string path = args.get_or("metrics", "");
  if (path.empty()) return;
  std::string json = obs::Registry::global().to_json();
  json.push_back('\n');
  if (path == "-") {
    std::fwrite(json.data(), 1, json.size(), stdout);
  } else {
    write_file(path, to_bytes(json));
  }
}

}  // namespace tre::cli
