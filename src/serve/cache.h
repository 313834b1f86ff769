// Sharded LRU result cache of the parse service: raw record bytes → the
// serialized JSON the service answered with. WHOIS traffic is heavily
// repetitive (popular domains get re-queried constantly), so a byte-keyed
// cache turns repeat requests into a hash probe + memcpy and skips the CRF
// entirely — and because the cached value is the exact response string, a
// hit is byte-identical to the parse that populated it.
//
// Sharding: the key hash picks one of `shards` independent LRU lists, each
// behind its own mutex, so concurrent workers rarely contend on a lock.
// LRU is therefore per-shard, not global — an eviction removes the oldest
// entry of the *full* shard, which approximates global LRU well once every
// shard holds a few hundred entries. Capacity is split evenly across
// shards (an entries bound, with byte usage tracked for observability).
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/little_endian.h"

namespace whoiscrf::serve {

class ResultCache {
 public:
  static constexpr size_t kDefaultShards = 16;

  // `max_entries` is the total capacity across all shards (minimum one
  // entry per shard). Tests pass `shards = 1` to make eviction order
  // deterministic.
  explicit ResultCache(size_t max_entries, size_t shards = kDefaultShards);

  // The hash used for both shard selection and the index. A Get/Put pair
  // over the same key (the worker's miss-then-insert path) can hash the
  // key once and pass it to both calls.
  static size_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }

  // Copies the cached value into `*value` and refreshes the entry's
  // recency. False on miss. `hash` must equal Hash(key).
  bool Get(std::string_view key, size_t hash, std::string* value);
  bool Get(std::string_view key, std::string* value) {
    return Get(key, Hash(key), value);
  }

  // Inserts (or refreshes) `key`, evicting least-recently-used entries of
  // the target shard as needed. Returns how many entries were evicted.
  // Takes the key by value so callers done with the record bytes can move
  // them in instead of paying a copy. `hash` must equal Hash(key).
  size_t Put(std::string key, size_t hash, std::string value);
  size_t Put(std::string key, std::string value) {
    const size_t hash = Hash(key);
    return Put(std::move(key), hash, std::move(value));
  }

  // --- Versioned keys (hot model swap) ----------------------------------
  // A service running behind a ModelHost tags every cache key with the
  // model version that produced the value, as an 8-byte little-endian
  // suffix on the record bytes (a suffix so the tag can be appended to and
  // stripped from an owned string without copying the record). Lookups
  // under the new version can never hit an old model's JSON — staleness is
  // ruled out by key inequality — and EvictVersion reclaims the dead
  // version's entries eagerly instead of waiting for LRU pressure.

  static void AppendVersionSuffix(std::string& key, uint64_t version) {
    char suffix[sizeof(uint64_t)];
    util::le::PutU64(suffix, version);
    key.append(suffix, sizeof(suffix));
  }
  static void StripVersionSuffix(std::string& key) {
    key.resize(key.size() - sizeof(uint64_t));
  }

  // Removes every entry whose key carries `version`'s suffix, across all
  // shards. Returns how many entries were removed. Only meaningful on a
  // cache whose keys are version-tagged.
  size_t EvictVersion(uint64_t version);

  // Totals are maintained as atomics on the Put path, so these reads
  // never touch the shard locks (they sit on the serve worker's
  // per-request metrics path).
  size_t entries() const { return entries_.load(std::memory_order_relaxed); }
  // Key + value payload bytes currently held (excludes node overhead).
  size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }
  size_t max_entries() const { return per_shard_cap_ * shards_.size(); }

 private:
  struct Node {
    size_t hash = 0;  // Hash(key), kept so eviction never rehashes
    std::string key;
    std::string value;
  };
  using LruList = std::list<Node>;

  // Index key carrying its precomputed hash, so the map never hashes the
  // (potentially multi-KB) record bytes itself.
  struct HashedKey {
    size_t hash = 0;
    std::string_view view;
  };
  struct HashedKeyHash {
    size_t operator()(const HashedKey& k) const { return k.hash; }
  };
  struct HashedKeyEq {
    bool operator()(const HashedKey& a, const HashedKey& b) const {
      return a.view == b.view;
    }
  };

  // The index keys are views into the list nodes' key strings; list nodes
  // never move, so the views stay valid until their node is erased.
  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used
    std::unordered_map<HashedKey, LruList::iterator, HashedKeyHash,
                       HashedKeyEq>
        index;
    size_t bytes = 0;
  };

  const size_t per_shard_cap_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<size_t> entries_{0};
  std::atomic<size_t> bytes_{0};
};

}  // namespace whoiscrf::serve
