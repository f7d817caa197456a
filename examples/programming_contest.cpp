// Worldwide Internet programming contest (the paper's §1 scenario).
//
// The problem set is distributed to every team hours before the start so
// network congestion cannot create unfairness — but it is timed-release
// encrypted. At the start instant the server broadcasts ONE key update;
// every team on the planet unlocks simultaneously. Teams behind a lossy
// link recover the update from the public archive (paper §3 / §6).
//
// Build & run:  ./examples/programming_contest
#include <cstdio>
#include <optional>
#include <vector>

#include "core/tre.h"
#include "hashing/drbg.h"
#include "timeserver/timeserver.h"

int main() {
  using namespace tre;
  auto params = params::load("tre-toy-96");  // many users: use the fast curve
  core::TreScheme scheme(params);
  hashing::HmacDrbg rng(to_bytes("contest-example"));

  server::Timeline timeline(server::TimeSpec::parse("2005-06-06T00:00Z")->unix_seconds());
  server::TimeServer authority(params, timeline, server::Granularity::kMinute, rng);
  authority.bus().set_loss_probability(0.3);  // flaky global multicast
  authority.bus().set_delay_range(0, 5);

  const std::string contest_start = "2005-06-06T09:00Z";
  const Bytes problems = to_bytes(
      "Problem A: shortest path with time-release edges\n"
      "Problem B: pairing-friendly curve search\n");

  struct Team {
    std::string name;
    core::UserKeyPair keys;
    core::SealedCiphertext handout;
    std::optional<Bytes> opened;
  };
  std::vector<Team> teams;
  for (const char* name : {"Toronto", "Tokyo", "Tbilisi", "Tulsa", "Tromso"}) {
    core::UserKeyPair keys = scheme.user_keygen(authority.public_key(), rng);
    // Midnight: organizers distribute per-team encrypted handouts.
    core::SealedCiphertext handout = scheme.seal(core::Mode::kBasic, problems, keys.pub,
                                                 authority.public_key(), contest_start,
                                                 rng);
    teams.push_back(Team{name, keys, handout, std::nullopt});
  }
  std::printf("%zu teams received the encrypted problem set at 00:00\n", teams.size());

  // Each team listens for the broadcast.
  for (auto& team : teams) {
    authority.bus().subscribe([&team, &scheme, &authority,
                               contest_start](const core::KeyUpdate& upd) {
      if (upd.tag == contest_start && !team.opened) {
        team.opened = scheme.open(team.handout, team.keys.a, upd, authority.public_key());
      }
    });
  }

  // The server runs through the morning (one update per minute).
  authority.run(server::TimeSpec::parse("2005-06-06T09:05Z")->unix_seconds());
  timeline.advance_to(server::TimeSpec::parse("2005-06-06T09:05Z")->unix_seconds());

  size_t via_broadcast = 0;
  for (auto& team : teams) {
    if (team.opened) ++via_broadcast;
  }
  std::printf("after start: %zu/%zu teams unlocked via broadcast "
              "(%llu drops on the bus)\n",
              via_broadcast, teams.size(),
              static_cast<unsigned long long>(authority.bus().stats().drops));

  // Unlucky teams fetch the missed update from the public archive.
  core::KeyUpdate archived = *authority.archive().find(contest_start);
  for (auto& team : teams) {
    if (!team.opened) {
      team.opened =
          scheme.open(team.handout, team.keys.a, archived, authority.public_key());
      std::printf("team %-8s recovered the update from the archive\n",
                  team.name.c_str());
    }
  }

  for (const auto& team : teams) {
    if (!team.opened || *team.opened != problems) {
      std::printf("team %s FAILED to open the problems\n", team.name.c_str());
      return 1;
    }
  }
  std::printf("all teams opened identical problem sets; "
              "server broadcast %llu bytes total for %zu teams\n",
              static_cast<unsigned long long>(authority.stats().bytes_published),
              teams.size());
  return 0;
}
