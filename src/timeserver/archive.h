// The public list of past key updates.
//
// Paper §3: "In case a receiver has missed a particular key update, he
// could still look up from the list of old key updates" — the archive is
// that list. Indexed lookup by tag plus ordered iteration for catch-up
// after an outage. Experiment E7 measures it at archive sizes up to 10^6.
// A catch-up batch is validated with the scheme's own
// verify_updates_batch (one RLC pairing check with exact attribution).
//
// Backend-generic: an archive stores BasicKeyUpdate<B> for whichever
// pairing backend the server runs on; `UpdateArchive` is the type-1
// instantiation.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/tre.h"

namespace tre::server {

template <class B>
class BasicUpdateArchive {
 public:
  /// Stores an update (idempotent for an identical re-publish; conflicting
  /// signatures for the same tag throw — the server must be consistent).
  void put(const core::BasicKeyUpdate<B>& update) {
    auto it = index_.find(update.tag);
    if (it != index_.end()) {
      require(B::gu_eq(ordered_[it->second].sig, update.sig),
              "UpdateArchive: conflicting update for the same tag");
      return;
    }
    index_.emplace(update.tag, ordered_.size());
    ordered_.push_back(update);
    total_bytes_ += update.to_bytes().size();
  }

  std::optional<core::BasicKeyUpdate<B>> find(std::string_view tag) const {
    auto it = index_.find(std::string(tag));
    if (it == index_.end()) return std::nullopt;
    return ordered_[it->second];
  }
  bool contains(std::string_view tag) const {
    return index_.count(std::string(tag)) > 0;
  }

  /// All updates, oldest first (publication order).
  const std::vector<core::BasicKeyUpdate<B>>& all() const { return ordered_; }

  /// Catch-up: every update published at position >= `cursor`; advances
  /// the caller's cursor to the end.
  std::vector<core::BasicKeyUpdate<B>> since(size_t& cursor) const {
    require(cursor <= ordered_.size(), "UpdateArchive: cursor out of range");
    std::vector<core::BasicKeyUpdate<B>> out(
        ordered_.begin() + static_cast<long>(cursor), ordered_.end());
    cursor = ordered_.size();
    return out;
  }

  size_t size() const { return ordered_.size(); }

  /// Total wire bytes a mirror of the archive would store/serve.
  size_t total_bytes() const { return total_bytes_; }

 private:
  std::vector<core::BasicKeyUpdate<B>> ordered_;
  std::unordered_map<std::string, size_t> index_;  // tag -> position
  size_t total_bytes_ = 0;
};

using UpdateArchive = BasicUpdateArchive<core::Tre512Backend>;

extern template class BasicUpdateArchive<core::Tre512Backend>;

}  // namespace tre::server
