#pragma once
/// \file fnmap.hpp
/// Open-addressed hash map from small function-shaped keys to dense ids.
///
/// The exact-equivalence engine hash-conses gates in two places: the Tseitin
/// encoder (structural sharing of identical gates across the golden/revised
/// pair) and the CEC structural-signature tier. Both run inside the hot
/// verify stage, so this map is built for that profile: keys are fixed-size
/// PODs (a function word plus up to six child ids), probing is linear over a
/// power-of-two slot table, and iteration order is never exposed — lookups
/// and the dense key/value arrays are the only access paths, which keeps the
/// behaviour deterministic regardless of insertion pressure.
///
/// Unlike std::unordered_map there is one allocation per growth step and no
/// per-node boxing.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vpga::common {

/// Key for one hash-consed gate: a truth-table / function word, up to six
/// child ids, an arity, and a small tag discriminating key spaces that share
/// one map (e.g. encoder side or node kind).
struct FnKey {
  std::uint64_t bits = 0;
  std::uint32_t kids[6] = {0, 0, 0, 0, 0, 0};
  std::uint8_t arity = 0;
  std::uint8_t tag = 0;

  friend bool operator==(const FnKey& a, const FnKey& b) {
    if (a.bits != b.bits || a.arity != b.arity || a.tag != b.tag) return false;
    for (int i = 0; i < 6; ++i) {
      if (a.kids[i] != b.kids[i]) return false;
    }
    return true;
  }
};

/// Open-addressed FnKey -> uint32 map with linear probing.
class FnKeyMap {
 public:
  static constexpr std::uint32_t kNotFound = 0xFFFFFFFFu;

  FnKeyMap() = default;

  void clear() {
    keys_.clear();
    values_.clear();
    slots_.clear();
    mask_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return keys_.size(); }

  /// Returns the mapped value or kNotFound.
  [[nodiscard]] std::uint32_t find(const FnKey& key) const {
    if (slots_.empty()) return kNotFound;
    std::uint64_t slot = hash(key) & mask_;
    while (slots_[slot] != 0) {
      const std::uint32_t dense = slots_[slot] - 1;
      if (keys_[dense] == key) return values_[dense];
      slot = (slot + 1) & mask_;
    }
    return kNotFound;
  }

  /// Returns the existing value for `key`, or inserts `fresh` and returns it.
  std::uint32_t find_or_insert(const FnKey& key, std::uint32_t fresh) {
    if (keys_.size() + 1 > (slots_.size() * 3) / 4) {
      rehash(slots_.empty() ? 64 : slots_.size() * 2);
    }
    std::uint64_t slot = hash(key) & mask_;
    while (slots_[slot] != 0) {
      const std::uint32_t dense = slots_[slot] - 1;
      if (keys_[dense] == key) return values_[dense];
      slot = (slot + 1) & mask_;
    }
    slots_[slot] = static_cast<std::uint32_t>(keys_.size()) + 1;
    keys_.push_back(key);
    values_.push_back(fresh);
    return fresh;
  }

 private:
  [[nodiscard]] static std::uint64_t hash(const FnKey& key) {
    // splitmix64-style mixing over the key fields; fixed constants keep the
    // probe order identical on every run.
    std::uint64_t h = key.bits + 0x9E3779B97F4A7C15ull;
    h ^= (static_cast<std::uint64_t>(key.arity) << 8) | key.tag;
    for (int i = 0; i < 6; ++i) {
      h += key.kids[i];
      h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ull;
    }
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBull;
    return h ^ (h >> 31);
  }

  void rehash(std::size_t new_cap) {
    slots_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (std::size_t dense = 0; dense < keys_.size(); ++dense) {
      std::uint64_t slot = hash(keys_[dense]) & mask_;
      while (slots_[slot] != 0) slot = (slot + 1) & mask_;
      slots_[slot] = static_cast<std::uint32_t>(dense) + 1;
    }
  }

  std::vector<FnKey> keys_;             ///< dense keys, insertion order
  std::vector<std::uint32_t> values_;   ///< dense values, parallel to keys_
  std::vector<std::uint32_t> slots_;    ///< dense index + 1; 0 = empty
  std::uint64_t mask_ = 0;
};

}  // namespace vpga::common
