#include "text/vocabulary.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/little_endian.h"

namespace whoiscrf::text {

void Vocabulary::Count(std::string_view attr) {
  if (frozen_) {
    throw std::logic_error("Vocabulary::Count called after Freeze");
  }
  auto it = counts_.find(attr);
  if (it == counts_.end()) {
    it = counts_.emplace(std::string(attr), Entry{}).first;
    it->second.first_seen = next_seen_++;
  }
  ++it->second.count;
}

void Vocabulary::Freeze(uint32_t min_count) {
  if (frozen_) throw std::logic_error("Vocabulary::Freeze called twice");
  std::vector<std::pair<int64_t, const std::string*>> kept;
  kept.reserve(counts_.size());
  for (const auto& [attr, entry] : counts_) {
    if (entry.count >= min_count) kept.emplace_back(entry.first_seen, &attr);
  }
  std::sort(kept.begin(), kept.end());
  names_.reserve(kept.size());
  ids_.reserve(kept.size());
  for (const auto& [seen, attr] : kept) {
    ids_.emplace(*attr, static_cast<int>(names_.size()));
    names_.push_back(*attr);
  }
  frozen_ = true;
}

int Vocabulary::Lookup(std::string_view attr) const {
  if (!frozen_) throw std::logic_error("Vocabulary::Lookup before Freeze");
  // Heterogeneous find: no allocation on this hot path (called for every
  // attribute of every line at parse time).
  auto it = ids_.find(attr);
  return it == ids_.end() ? kNotFound : it->second;
}

const std::string& Vocabulary::Name(int id) const {
  if (id < 0 || static_cast<size_t>(id) >= names_.size()) {
    throw std::out_of_range("Vocabulary::Name: bad id");
  }
  return names_[static_cast<size_t>(id)];
}

void Vocabulary::Save(std::ostream& os) const {
  if (!frozen_) throw std::logic_error("Vocabulary::Save before Freeze");
  util::le::WriteU32(os, static_cast<uint32_t>(names_.size()));
  for (const std::string& name : names_) util::le::WriteString(os, name);
}

Vocabulary Vocabulary::Load(std::istream& is) {
  constexpr std::string_view kLoad = "Vocabulary::Load";
  Vocabulary v;
  const uint32_t n = util::le::ReadU32(is, kLoad);
  // Past kReserveLimit entries, grow as they arrive.
  const size_t expect = std::min<size_t>(n, util::le::kReserveLimit);
  v.names_.reserve(expect);
  v.ids_.reserve(expect);
  for (uint32_t i = 0; i < n; ++i) {
    std::string name = util::le::ReadString(is, kLoad);
    v.ids_.emplace(name, static_cast<int>(v.names_.size()));
    v.names_.push_back(std::move(name));
  }
  v.frozen_ = true;
  return v;
}

}  // namespace whoiscrf::text
