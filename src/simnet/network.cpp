#include "simnet/network.h"

#include "bigint/bigint.h"
#include "common/error.h"
#include "obs/metrics.h"

namespace tre::simnet {

namespace {

// Fleet-wide totals of the per-instance Stats (every Network in the
// process shares these).
struct Probes {
  obs::CounterProbe sent{"simnet.net.sent"};
  obs::CounterProbe delivered{"simnet.net.delivered"};
  obs::CounterProbe dropped{"simnet.net.dropped"};
  obs::CounterProbe fault_drops{"simnet.net.fault_drops"};
  obs::CounterProbe bytes_carried{"simnet.net.bytes_carried"};

  static const Probes& get() {
    static const Probes p;
    return p;
  }
};

}  // namespace

Network::Network(server::Timeline& timeline, ByteSpan seed)
    : timeline_(timeline),
      rng_(seed.empty() ? ByteSpan(to_bytes("simnet-default")) : seed) {}

NodeId Network::add_node(std::string name) {
  names_.push_back(std::move(name));
  inbound_.push_back(0);
  return names_.size() - 1;
}

const std::string& Network::name_of(NodeId id) const {
  require(id < names_.size(), "Network: unknown node");
  return names_[id];
}

void Network::connect(NodeId a, NodeId b, LinkSpec spec) {
  require(a < names_.size() && b < names_.size() && a != b, "Network: bad link");
  require(spec.base_delay >= 0 && spec.jitter >= 0 && spec.loss >= 0.0 &&
              spec.loss <= 1.0,
          "Network: bad link spec");
  links_[{std::min(a, b), std::max(a, b)}] = spec;
}

std::uint64_t Network::inbound_count(NodeId node) const {
  require(node < inbound_.size(), "Network: unknown node");
  return inbound_[node];
}

void Network::send(NodeId from, NodeId to, size_t bytes,
                   std::function<void()> on_deliver) {
  require(from < names_.size() && to < names_.size(), "Network: unknown node");
  ++stats_.sent;
  Probes::get().sent.add();
  if (faults_ && !faults_->empty() &&
      (!faults_->node_up(from, timeline_.now()) ||
       !faults_->link_up(from, to, timeline_.now()))) {
    count_drop(/*fault=*/true);
    return;
  }
  auto it = links_.find({std::min(from, to), std::max(from, to)});
  if (it == links_.end()) {
    count_drop(/*fault=*/false);
    return;
  }
  const LinkSpec& link = it->second;
  Bytes draw = rng_.bytes(8);
  double u = static_cast<double>(bigint::BigInt<1>::from_bytes_be(draw).w[0]) /
             (static_cast<double>(UINT64_MAX) + 1.0);
  if (u < link.loss) {
    count_drop(/*fault=*/false);
    return;
  }
  std::int64_t delay = link.base_delay;
  if (link.jitter > 0) {
    Bytes jb = rng_.bytes(8);
    delay += static_cast<std::int64_t>(bigint::BigInt<1>::from_bytes_be(jb).w[0] %
                                       static_cast<std::uint64_t>(link.jitter + 1));
  }
  stats_.bytes_carried += bytes;
  Probes::get().bytes_carried.add(bytes);
  ++inbound_[to];
  // A receiver that is down at the arrival instant loses the message.
  timeline_.schedule(delay, [this, to, fn = std::move(on_deliver)] {
    if (faults_ && !faults_->node_up(to, timeline_.now())) {
      count_drop(/*fault=*/true);
      return;
    }
    ++stats_.delivered;
    Probes::get().delivered.add();
    fn();
  });
}

void Network::count_drop(bool fault) {
  ++stats_.dropped;
  Probes::get().dropped.add();
  if (fault) {
    ++stats_.fault_drops;
    Probes::get().fault_drops.add();
  }
}

}  // namespace tre::simnet
