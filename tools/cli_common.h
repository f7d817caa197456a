// Shared plumbing for the command-line tools (tre_cli, tred): the TRE1
// file envelope, option parsing, and the helpers that load served
// artifacts into a daemon store. Header-only — these are tools, not
// library surface.
//
// Files are self-describing: a 4-byte magic, a type byte, the parameter
// set name, then the payload, so mixing parameter sets or file kinds is
// caught before any cryptography runs.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/error.h"
#include "daemon/store.h"

namespace tre::cli {

constexpr char kEnvelopeMagic[4] = {'T', 'R', 'E', '1'};

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

inline Bytes envelope_bytes(FileKind kind, const std::string& set_name,
                            ByteSpan payload) {
  require(set_name.size() <= 255, "parameter set name too long");
  const Bytes header = {static_cast<std::uint8_t>(kEnvelopeMagic[0]),
                        static_cast<std::uint8_t>(kEnvelopeMagic[1]),
                        static_cast<std::uint8_t>(kEnvelopeMagic[2]),
                        static_cast<std::uint8_t>(kEnvelopeMagic[3]),
                        static_cast<std::uint8_t>(kind),
                        static_cast<std::uint8_t>(set_name.size())};
  return concat({header, to_bytes(set_name), payload});
}

inline void write_envelope(const std::string& path, FileKind kind,
                           const std::string& set_name, ByteSpan payload) {
  write_file(path, envelope_bytes(kind, set_name, payload));
}

inline Envelope parse_envelope_bytes(const Bytes& raw) {
  require(raw.size() >= 6 && std::memcmp(raw.data(), kEnvelopeMagic, 4) == 0,
          "not a tre_cli file (bad magic)");
  Envelope env;
  env.kind = static_cast<FileKind>(raw[4]);
  size_t name_len = raw[5];
  require(raw.size() >= 6 + name_len, "truncated file header");
  env.set_name.assign(raw.begin() + 6, raw.begin() + 6 + static_cast<long>(name_len));
  env.payload.assign(raw.begin() + 6 + static_cast<long>(name_len), raw.end());
  return env;
}

inline Envelope parse_envelope(const std::string& path) {
  return parse_envelope_bytes(read_file(path));
}

inline Envelope read_envelope(const std::string& path, FileKind expected) {
  Envelope env = parse_envelope(path);
  require(env.kind == expected, "wrong file kind for this option");
  return env;
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

inline std::uint64_t parse_u64(const std::string& s, const char* what) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos)
    throw Error(std::string(what) + ": expected a decimal number");
  errno = 0;
  char* end = nullptr;
  unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0')
    throw Error(std::string(what) + ": number out of range");
  return v;
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
  std::uint64_t port = parse_u64(port_str, what);
  require(port > 0 && port <= 65535, "port out of range");
  hp.port = static_cast<std::uint16_t>(port);
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

/// Loads a server-pub envelope plus update envelopes into a daemon
/// store: the serving surface for tred / tre_cli serve. Updates are
/// archived under their envelope PAYLOAD (the exact KeyUpdate wire a
/// fetcher will parse); the tag is recovered from the wire's leading
/// length-prefixed tag field, which both backends share by construction.
inline std::string update_wire_tag(const Bytes& wire) {
  require(wire.size() >= 2, "update wire too short");
  const size_t tag_len = (size_t(wire[0]) << 8) | wire[1];
  require(wire.size() >= 2 + tag_len, "update wire too short for its tag");
  return std::string(wire.begin() + 2, wire.begin() + 2 + static_cast<long>(tag_len));
}

/// Tag of a PartialUpdate wire (u16 index || u16 tag len || tag || point)
/// without parsing the point — both backends share the layout.
inline std::string partial_wire_tag(const Bytes& wire) {
  require(wire.size() >= 4, "partial wire too short");
  const size_t tag_len = (size_t(wire[2]) << 8) | wire[3];
  require(wire.size() >= 4 + tag_len, "partial wire too short for its tag");
  return std::string(wire.begin() + 4, wire.begin() + 4 + static_cast<long>(tag_len));
}

inline void load_store(daemon::Store& store, const std::string& pub_path,
                       const std::vector<std::string>& update_paths) {
  Envelope pub = read_envelope(pub_path, FileKind::kServerPub);
  store.set_server_key(pub.set_name, pub.payload);
  for (const std::string& path : update_paths) {
    Envelope upd = read_envelope(path, FileKind::kUpdate);
    require(upd.set_name == pub.set_name,
            "update and server key use different parameter sets");
    std::string tag = update_wire_tag(upd.payload);
    auto r = store.put(tag, upd.payload);
    require(r.ok(), "conflicting update for the same tag");
  }
}

}  // namespace tre::cli
