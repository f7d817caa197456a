// Discrete-event point-to-point network simulation.
//
// Models the distribution side of the paper's §3 deployment story: the
// passive server's outputs travel over real links with latency, jitter
// and loss, to mirrors and receivers. Built on the shared Timeline so
// protocol logic and network behaviour share one deterministic clock.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "hashing/drbg.h"
#include "simnet/faults.h"
#include "timeserver/timeline.h"

namespace tre::simnet {

struct LinkSpec {
  std::int64_t base_delay = 0;  // seconds
  std::int64_t jitter = 0;      // uniform extra delay in [0, jitter]
  double loss = 0.0;            // per-message drop probability
};

class Network {
 public:
  Network(server::Timeline& timeline, ByteSpan seed);

  NodeId add_node(std::string name);
  const std::string& name_of(NodeId id) const;
  size_t node_count() const { return names_.size(); }

  /// Bidirectional link; later connect() calls replace the spec.
  void connect(NodeId a, NodeId b, LinkSpec spec);

  /// Sends `bytes` from a to b; `on_deliver` fires at the arrival
  /// instant, or never if the message is lost or no link exists (an
  /// unreachable destination counts as a drop). With a fault plan
  /// installed, a partitioned link or crashed sender drops at the send
  /// instant, and a receiver that is down at the arrival instant loses
  /// the message even though it was carried.
  void send(NodeId from, NodeId to, size_t bytes, std::function<void()> on_deliver);

  /// Installs a fault script (non-owning; nullptr restores fault-free
  /// behaviour). The plan must outlive every send it affects.
  void set_fault_plan(FaultPlan* plan) { faults_ = plan; }
  FaultPlan* fault_plan() const { return faults_; }

  /// This network's traffic (the same events also fire the global
  /// simnet.net.* probes). Once every scheduled arrival has run,
  /// sent == delivered + dropped.
  struct Stats {
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;   // on_deliver ran
    std::uint64_t dropped = 0;     // lost at send or at arrival
    std::uint64_t fault_drops = 0; // subset of drops caused by the fault plan
    std::uint64_t bytes_carried = 0;  // put on a link at the send instant
  };
  const Stats& stats() const { return stats_; }

  /// Messages addressed to `node` (load accounting for E16).
  std::uint64_t inbound_count(NodeId node) const;

 private:
  void count_drop(bool fault);

  server::Timeline& timeline_;
  hashing::HmacDrbg rng_;
  std::vector<std::string> names_;
  std::map<std::pair<NodeId, NodeId>, LinkSpec> links_;
  std::vector<std::uint64_t> inbound_;
  FaultPlan* faults_ = nullptr;
  Stats stats_;
};

}  // namespace tre::simnet
