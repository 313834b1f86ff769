#include "whois/whois_parser.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "crf/inference.h"
#include "crf/viterbi.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "text/separator.h"
#include "text/word_classes.h"
#include "util/byte_scan.h"
#include "util/key_hash.h"
#include "util/little_endian.h"
#include "util/string_util.h"

namespace whoiscrf::whois {

namespace {

// Parser-level serialization header (little-endian, like CrfModel's own
// framing). Streams written before this header existed start directly with
// CrfModel's "WCRF" magic; Load detects that and falls back to default
// options, preserving compatibility with old model files.
constexpr uint32_t kParserMagic = 0x53525057;  // "WPRS"
constexpr uint32_t kParserVersion = 1;
constexpr std::string_view kLoad = "WhoisParser::Load";

using util::le::ReadF64;
using util::le::ReadU32;
using util::le::WriteF64;
using util::le::WriteU32;

constexpr uint32_t kTokWordClasses = 1u << 0;
constexpr uint32_t kTokLayoutMarkers = 1u << 1;
constexpr uint32_t kTokSeparatorMarkers = 1u << 2;

// Title/value split with fallback: lines without a separator are all
// value. Fills `title` lower-cased (allocation-free once it has capacity)
// and returns the value, a view into the line.
std::string_view SplitTitleValueInto(
    const text::Line& line, const std::optional<text::SeparatorSplit>& sep,
    std::string& title) {
  if (!sep.has_value()) {
    title.clear();
    return util::Trim(line.text);
  }
  title.assign(sep->title);
  util::scan::AsciiLower(title.data(), title.size(), title.data());
  return sep->value;
}

void AssignFirst(std::string& field, std::string_view value) {
  if (field.empty() && !value.empty()) field = value;
}

uint64_t NextParserId() {
  static std::atomic<uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Layout flags of a line as one byte (the Line fields besides its text
// that feature extraction reads).
char LayoutFlags(const text::Line& line) {
  char flags = 0;
  if (line.preceded_by_blank) flags |= 1;
  if (line.shift_left) flags |= 2;
  if (line.shift_right) flags |= 4;
  if (line.starts_with_symbol) flags |= 8;
  if (line.has_tab) flags |= 16;
  return flags;
}

// Cache key: the layout flags + text a Line contributes to feature
// extraction (Tokenizer::ExtractTo reads nothing else), so equal keys
// guarantee identical attribute streams.
void LineCacheKey(const text::Line& line, std::string& key) {
  key.assign(1, LayoutFlags(line));
  key.append(line.text);
}

// Slot count of the direct-mapped line cache (power of two; the probe
// masks the key hash). Only recurring lines are admitted (Doorkeeper), and
// a registrar template corpus has a few thousand of those, so conflict
// evictions of hot lines are rare; total memory stays bounded at slots x
// working line size.
constexpr size_t kLineCacheSlots = 1 << 13;

// Slot count of the direct-mapped word cache (power of two). WHOIS word
// vocabulary is Zipfian; hot words re-enter immediately after a conflict
// eviction, and replay copies everything out during the probe, so no
// pinning is needed.
constexpr size_t kWordCacheSlots = 1 << 13;

// The slot sizes the header comments promise (they bound a workspace).
static_assert(sizeof(LineSlot) == 48);
static_assert(sizeof(WordSlot) == 72);

// Title memo: slot count (power of two), probe window and the longest raw
// title it keys. A census has ~400 distinct title prefixes; longer titles
// are rare and simply tokenized in full.
constexpr size_t kTitleMemoSlots = 1 << 10;
constexpr size_t kTitleMemoProbe = 4;
constexpr size_t kTitleMemoMaxTitle = 64;

// Transition-block memo slot counts (powers of two) per level, against
// ~93 and ~28 distinct slot lists in a census.
constexpr size_t kPairMemoSlots1 = 1 << 8;
constexpr size_t kPairMemoSlots2 = 1 << 6;

// Title memo key: everything the tokenizer's prefix part reads — layout
// flags, separator kind, whether the value is empty (SEP_EMPTYVAL), and
// the raw title bytes.
void TitleMemoKey(const text::Line& line, const text::SeparatorSplit& split,
                  std::string& key) {
  key.assign(1, LayoutFlags(line));
  key.push_back(static_cast<char>((static_cast<int>(split.kind) << 1) |
                                  (split.value.empty() ? 1 : 0)));
  key.append(split.title);
}

// Finds `key` in the window of the title memo, or nullptr.
TitleMemoSlot* FindTitle(std::vector<TitleMemoSlot>& titles, uint64_t hash,
                         const std::string& key) {
  for (size_t w = 0; w < kTitleMemoProbe; ++w) {
    TitleMemoSlot& slot = titles[(hash + w) & (kTitleMemoSlots - 1)];
    if (slot.hash == hash && slot.key == key) return &slot;
  }
  return nullptr;
}

// The slot a new title key takes: a vacant one in its window, else the
// window entries in turn.
TitleMemoSlot& TitleVictim(std::vector<TitleMemoSlot>& titles, uint64_t hash,
                           size_t& next_victim) {
  for (size_t w = 0; w < kTitleMemoProbe; ++w) {
    TitleMemoSlot& slot = titles[(hash + w) & (kTitleMemoSlots - 1)];
    if (slot.key.empty()) return slot;
  }
  return titles[(hash + next_victim++ % kTitleMemoProbe) &
                (kTitleMemoSlots - 1)];
}

// Sizes `memo` for blocks of `block_size` doubles and empties it. The
// overflow pool goes too: its blocks may have another parser's size.
void ResetPairMemo(PairBlockMemo& memo, size_t slots, size_t block_size) {
  memo.entries.assign(slots, PairBlockMemo::Entry{});
  memo.block_size = block_size;
  memo.blocks.clear();
  memo.blocks.reserve(slots * block_size);
  memo.overflow.clear();
  memo.overflow_used = 0;
}

// The memoized block for `slots` (non-empty). On a miss, `fill(out)`
// writes it into an evictable entry's storage, or into the overflow pool
// when none is free. The block stays valid until the next record starts.
template <typename Fill>
const double* PairBlock(PairBlockMemo& memo, std::span<const int> slots,
                        uint64_t record_seq, Fill&& fill) {
  const size_t mask = memo.entries.size() - 1;
  const uint32_t len = static_cast<uint32_t>(slots.size());
  PairBlockMemo::Entry* victim = nullptr;
  if (len <= PairBlockMemo::kMaxKey) {
    const uint64_t hash = util::KeyHash(std::string_view(
        reinterpret_cast<const char*>(slots.data()), len * sizeof(int)));
    for (size_t w = 0; w < PairBlockMemo::kProbe; ++w) {
      PairBlockMemo::Entry& e = memo.entries[(hash + w) & mask];
      if (e.hash == hash && e.len == len &&
          std::equal(slots.begin(), slots.end(), e.key)) {
        e.record_seq = record_seq;
        return &memo.blocks[e.block * memo.block_size];
      }
    }
    for (size_t w = 0; w < PairBlockMemo::kProbe && victim == nullptr; ++w) {
      PairBlockMemo::Entry& e = memo.entries[(hash + w) & mask];
      if (e.len == 0) victim = &e;
    }
    for (size_t w = 0; w < PairBlockMemo::kProbe && victim == nullptr; ++w) {
      PairBlockMemo::Entry& e =
          memo.entries[(hash + memo.next_victim++ % PairBlockMemo::kProbe) &
                       mask];
      if (e.record_seq != record_seq) victim = &e;
    }
    if (victim != nullptr) {
      if (victim->len == 0) {  // first use of this entry: append its block
        victim->block = static_cast<uint32_t>(memo.blocks.size() /
                                              memo.block_size);
        memo.blocks.resize(memo.blocks.size() + memo.block_size);
      }
      victim->hash = hash;
      victim->record_seq = record_seq;
      victim->len = len;
      std::copy(slots.begin(), slots.end(), victim->key);
    }
  }
  double* out;
  if (victim != nullptr) {
    out = &memo.blocks[victim->block * memo.block_size];
  } else {
    if (memo.overflow_used == memo.overflow.size()) {
      memo.overflow.emplace_back(memo.block_size);
    }
    out = memo.overflow[memo.overflow_used++].data();
  }
  fill(out);
  return out;
}

using util::KeyHash;

}  // namespace

namespace {

// Interns one line's attribute stream against BOTH levels with a single
// probe of the parser's merged attr table per attribute. Produces exactly
// what one InternSink per model would (same ids in the same order, same
// first-occurrence dedup, same trans_slots), because the table is the
// merge of both vocabularies and slot maps.
// (A template only so it can name the parser's private AttrSlot type.)
template <typename AttrSlot>
class DualInternSink final : public text::AttrSink {
 public:
  // `attrs`/`names` are the parser's flat attr table. `packed` is the
  // parser's merged unary table (L1+L2 doubles per attribute): Add() folds
  // the unary score of every accepted attribute into the line's
  // accumulators as it interns, in the exact order CrfModel::UnaryScores
  // would have summed them — which makes a separate scoring pass over the
  // compiled items redundant, and streams one cache-dense row per
  // attribute instead of gathering from two weight arrays.
  DualInternSink(const std::vector<AttrSlot>& attrs, const std::string& names,
                 std::vector<WordSlot>& words, Doorkeeper& doorkeeper,
                 const double* packed, size_t num_labels1, size_t num_labels2)
      : attrs_(attrs.data()),
        attr_mask_(attrs.size() - 1),
        names_(names.data()),
        words_(words.data()),
        doorkeeper_(doorkeeper),
        packed_(packed),
        L1_(num_labels1),
        L2_(num_labels2) {}

  void BeginLine(crf::CompiledItem& item1, crf::CompiledItem& item2,
                 double* unary1, double* unary2) {
    item1_ = &item1;
    item2_ = &item2;
    unary1_ = unary1;
    unary2_ = unary2;
    item1.attrs.clear();
    item1.trans_slots.clear();
    item2.attrs.clear();
    item2.trans_slots.clear();
    std::fill_n(unary1, L1_, 0.0);
    std::fill_n(unary2, L2_, 0.0);
  }

  // Word memoization (see AttrSink::OnWord). On a hit, replays the word's
  // interned attributes directly — Add() re-runs first-occurrence dedup
  // against the current items, so a replay composes with whatever the line
  // emitted before it exactly like a live emission would. On a miss of a
  // word the doorkeeper has seen before, records the OnAttr stream until
  // EndWord; a first sighting is interned without being recorded.
  int OnWord(std::string_view raw_word, bool title, bool transition) override {
    rec_mapped_ = -1;
    if (raw_word.size() + 1 > WordSlot::kKeyMax) return -1;  // uncacheable
    key_[0] = title ? 'T' : 'V';
    std::memcpy(key_ + 1, raw_word.data(), raw_word.size());
    key_len_ = static_cast<uint8_t>(raw_word.size() + 1);
    hash_ = KeyHash(std::string_view(key_, key_len_));
    slot_ = &words_[hash_ & (kWordCacheSlots - 1)];
    if (slot_->hash == hash_ && slot_->len == key_len_ &&
        std::memcmp(slot_->key, key_, key_len_) == 0) {
      for (size_t i = 0; i < slot_->n_mapped; ++i) {
        const uint32_t m = slot_->mapped[i];
        // Only the word attribute itself is transition-eligible, and only
        // when the caller's context (first title word) says so now.
        Emit(attrs_[m & ~WordSlot::kWordAttr],
             transition && (m & WordSlot::kWordAttr) != 0);
      }
      return slot_->emit_count;
    }
    if (!doorkeeper_.SeenBefore(hash_)) return -1;
    rec_mapped_ = 0;
    rec_emit_ = 0;
    return -1;
  }

  // Title memo: copies out, or reinstates, everything the tokenizer's
  // prefix part left in this line's items and unary accumulators.
  void SavePrefix(TitleMemoSlot& slot, size_t emitted) const {
    const std::vector<int>* parts[4] = {&item1_->attrs, &item1_->trans_slots,
                                        &item2_->attrs, &item2_->trans_slots};
    slot.ids.clear();
    for (size_t k = 0; k < 4; ++k) {
      slot.ids.insert(slot.ids.end(), parts[k]->begin(), parts[k]->end());
      slot.counts[k] = static_cast<uint16_t>(parts[k]->size());
    }
    slot.unary.assign(unary1_, unary1_ + L1_);
    slot.unary.insert(slot.unary.end(), unary2_, unary2_ + L2_);
    slot.emitted = static_cast<uint32_t>(emitted);
  }

  void RestorePrefix(const TitleMemoSlot& slot) {
    std::vector<int>* parts[4] = {&item1_->attrs, &item1_->trans_slots,
                                  &item2_->attrs, &item2_->trans_slots};
    const int32_t* id = slot.ids.data();
    for (size_t k = 0; k < 4; ++k) {
      parts[k]->assign(id, id + slot.counts[k]);
      id += slot.counts[k];
    }
    std::copy_n(slot.unary.data(), L1_, unary1_);
    std::copy_n(slot.unary.data() + L1_, L2_, unary2_);
  }

  void EndWord() override {
    if (rec_mapped_ < 0) return;  // uncacheable or mapped-array overflow
    // Commit the staged recording only now: an aborted recording must not
    // disturb the (unrelated) entry currently resident in the slot.
    slot_->hash = hash_;
    slot_->len = key_len_;
    slot_->emit_count = static_cast<uint8_t>(rec_emit_);
    slot_->n_mapped = static_cast<uint8_t>(rec_mapped_);
    std::memcpy(slot_->key, key_, key_len_);
    std::memcpy(slot_->mapped, rec_staging_,
                static_cast<size_t>(rec_mapped_) * sizeof(uint32_t));
    rec_mapped_ = -1;
  }

  void OnAttr(std::string_view attr, bool transition) override {
    const AttrSlot* found = Find(attr);
    if (rec_mapped_ >= 0) {
      // The first emission inside a word window is the word attribute.
      const bool is_word = rec_emit_ == 0;
      ++rec_emit_;
      if (found != nullptr) {
        if (rec_mapped_ < static_cast<int>(WordSlot::kMappedMax)) {
          rec_staging_[rec_mapped_++] =
              static_cast<uint32_t>(found - attrs_) |
              (is_word ? WordSlot::kWordAttr : 0);
        } else {
          rec_mapped_ = -1;  // too many attrs to memoize; leave slot as-is
        }
      }
    }
    if (found != nullptr) Emit(*found, transition);
  }

 private:
  // One probe of the flat attr table: linear probing from the hash's home
  // slot until the attribute or a vacant slot (the table is at most half
  // full, so every probe terminates).
  const AttrSlot* Find(std::string_view attr) const {
    const uint64_t h = KeyHash(attr);
    for (size_t i = h & attr_mask_;; i = (i + 1) & attr_mask_) {
      const AttrSlot& slot = attrs_[i];
      if (slot.attr.packed < 0) return nullptr;
      if (slot.hash == h && slot.name_size == attr.size() &&
          std::memcmp(names_ + slot.name_offset, attr.data(), attr.size()) ==
              0) {
        return &slot;
      }
    }
  }

  // Interns one in-vocabulary attribute into whichever levels know it.
  void Emit(const AttrSlot& slot, bool transition) {
    const auto& d = slot.attr;
    const double* row = packed_ + d.packed;
    if (d.id1 >= 0) Add(*item1_, d.id1, d.slot1, transition, row, L1_, unary1_);
    if (d.id2 >= 0) {
      Add(*item2_, d.id2, d.slot2, transition, row + L1_, L2_, unary2_);
    }
  }

  static void Add(crf::CompiledItem& item, int id, int slot, bool transition,
                  const double* row, size_t L, double* unary) {
    for (int existing : item.attrs) {
      if (existing == id) return;  // first occurrence wins
    }
    item.attrs.push_back(id);
    if (transition && slot >= 0) item.trans_slots.push_back(slot);
    for (size_t j = 0; j < L; ++j) unary[j] += row[j];
  }

  const AttrSlot* attrs_;
  size_t attr_mask_;
  const char* names_;
  WordSlot* words_;
  Doorkeeper& doorkeeper_;
  const double* packed_;
  size_t L1_, L2_;
  crf::CompiledItem* item1_ = nullptr;
  crf::CompiledItem* item2_ = nullptr;
  double* unary1_ = nullptr;
  double* unary2_ = nullptr;
  WordSlot* slot_ = nullptr;
  uint64_t hash_ = 0;
  uint8_t key_len_ = 0;
  char key_[WordSlot::kKeyMax];
  int rec_mapped_ = -1;  // -1: not recording; else #mapped attrs recorded
  uint32_t rec_emit_ = 0;
  uint32_t rec_staging_[WordSlot::kMappedMax];
};

}  // namespace

namespace {

// Routes one subfield value into a contact struct.
void AssignContactField(Contact& c, Level2Label sub, std::string_view v) {
  switch (sub) {
    case Level2Label::kName: AssignFirst(c.name, v); break;
    case Level2Label::kId: AssignFirst(c.id, v); break;
    case Level2Label::kOrg: AssignFirst(c.org, v); break;
    case Level2Label::kStreet: c.street.emplace_back(v); break;
    case Level2Label::kCity: AssignFirst(c.city, v); break;
    case Level2Label::kState: AssignFirst(c.state, v); break;
    case Level2Label::kPostcode: AssignFirst(c.postcode, v); break;
    case Level2Label::kCountry: AssignFirst(c.country, v); break;
    case Level2Label::kPhone: AssignFirst(c.phone, v); break;
    case Level2Label::kFax: AssignFirst(c.fax, v); break;
    case Level2Label::kEmail: AssignFirst(c.email, v); break;
    case Level2Label::kOther: c.other.emplace_back(v); break;
  }
}

}  // namespace

namespace {

// Route targets per level-1 label family; value 0 of each enum is "no
// action" (LineRoutePlan's default). The plan is resolved from the
// (lower-cased title, value) pair alone, so it can be computed once per
// distinct line and cached alongside the title/value split.
enum RegistrarRoute : uint8_t {
  kRegNone = 0,
  kRegWhoisServer,
  kRegUrl,
  kRegName,
  kRegNameFallback,  // untitled line: registrar name if none seen yet
};
enum DomainRoute : uint8_t {
  kDomNone = 0,
  kDomName,
  kDomNameServer,
  kDomStatus,
  kDomNameFallback,  // untitled domain-shaped value
};
enum DateRoute : uint8_t {
  kDateNone = 0,
  kDateCreated,
  kDateUpdated,
  kDateExpires,
};

// Letter-presence bitmask: a keyword can only be a substring of `s` if
// every letter it uses appears in `s`, so one pass over the (lower-cased)
// title prunes nearly all of the keyword scans below. With a literal
// keyword the mask computation constant-folds.
uint32_t LetterMask(std::string_view s) {
  uint32_t m = 0;
  for (char c : s) {
    if (c >= 'a' && c <= 'z') m |= 1u << (c - 'a');
  }
  return m;
}

inline bool HasKeyword(const std::string& title, uint32_t title_mask,
                       const char* keyword) {
  const uint32_t needed = LetterMask(keyword);
  if ((title_mask & needed) != needed) return false;
  return title.find(keyword) != std::string::npos;
}

LineRoutePlan ComputeRoutePlan(const std::string& title,
                               std::string_view value) {
  LineRoutePlan plan;
  const uint32_t tm = LetterMask(title);
  if (HasKeyword(title, tm, "whois") || HasKeyword(title, tm, "referral")) {
    plan.registrar = kRegWhoisServer;
  } else if (HasKeyword(title, tm, "url") || text::IsUrl(value)) {
    plan.registrar = kRegUrl;
  } else if (HasKeyword(title, tm, "iana")) {
    // Registrar IANA ID — numeric handle, not the registrar name.
  } else if (HasKeyword(title, tm, "registrar") ||
             HasKeyword(title, tm, "sponsor") ||
             HasKeyword(title, tm, "registered by") ||
             HasKeyword(title, tm, "registered through") ||
             HasKeyword(title, tm, "provided by") ||
             HasKeyword(title, tm, "provider")) {
    plan.registrar = kRegName;
  } else if (title.empty()) {
    plan.registrar = kRegNameFallback;
  }

  if (HasKeyword(title, tm, "domain")) {
    plan.domain = kDomName;
  } else if (HasKeyword(title, tm, "server") ||
             HasKeyword(title, tm, "nserver") ||
             HasKeyword(title, tm, "name server")) {
    plan.domain = kDomNameServer;
  } else if (HasKeyword(title, tm, "status")) {
    plan.domain = kDomStatus;
  } else if (title.empty() && text::IsDomainName(value)) {
    plan.domain = kDomNameFallback;
  }

  if (HasKeyword(title, tm, "creat") ||
      HasKeyword(title, tm, "registered on") ||
      HasKeyword(title, tm, "registration date")) {
    plan.date = kDateCreated;
  } else if (HasKeyword(title, tm, "updat") ||
             HasKeyword(title, tm, "modif") ||
             HasKeyword(title, tm, "changed")) {
    plan.date = kDateUpdated;
  } else if (HasKeyword(title, tm, "expir") ||
             HasKeyword(title, tm, "renew") ||
             HasKeyword(title, tm, "paid-till")) {
    plan.date = kDateExpires;
  }
  return plan;
}

// The plan of a non-empty lowered title before its value is seen,
// memoized in `cache` (see FieldRouteCache).
LineRoutePlan TitleRoutePlan(const std::string& title,
                             FieldRouteCache& cache) {
  auto it = cache.by_title.find(title);
  if (it == cache.by_title.end()) {
    if (cache.by_title.size() >= FieldRouteCache::kMaxTitles) {
      cache.by_title.clear();
    }
    it = cache.by_title.emplace(title, ComputeRoutePlan(title, {})).first;
  }
  return it->second;
}

// The one value-dependence a titled line has: a URL-shaped value wins the
// registrar route unless a stronger keyword already did (mirrors
// ComputeRoutePlan's chain, which tests IsUrl before the registrar-name
// keywords).
LineRoutePlan WithValue(LineRoutePlan plan, std::string_view value) {
  if (plan.registrar != kRegWhoisServer && plan.registrar != kRegUrl &&
      text::IsUrl(value)) {
    plan.registrar = kRegUrl;
  }
  return plan;
}

// ComputeRoutePlan memoized per lowered title. Untitled lines route on the
// value (domain/URL shape), so their plan is computed per line; they are
// the rare case in titled formats.
LineRoutePlan CachedRoutePlan(const std::string& title,
                              std::string_view value,
                              FieldRouteCache& cache) {
  if (title.empty()) return ComputeRoutePlan(title, value);
  return WithValue(TitleRoutePlan(title, cache), value);
}

// Routes one line's value into the ParsedWhois given its level-1 label and
// pre-resolved plan; the two indices walk the level-2 label vectors.
// Single source of truth for both ExtractFields (which computes the plan
// on the fly) and the fast path (which replays the cached plan).
void RouteLine(const LineRoutePlan& plan, std::string_view value,
               Level1Label label,
               const std::vector<Level2Label>& registrant_sub_labels,
               size_t& registrant_index,
               const std::vector<Level2Label>& other_sub_labels,
               size_t& other_index, ParsedWhois& out) {
  switch (label) {
      case Level1Label::kRegistrar: {
        switch (plan.registrar) {
          case kRegWhoisServer: AssignFirst(out.whois_server, value); break;
          case kRegUrl: AssignFirst(out.registrar_url, value); break;
          case kRegName: AssignFirst(out.registrar, value); break;
          // AssignFirst already requires out.registrar to be empty.
          case kRegNameFallback: AssignFirst(out.registrar, value); break;
          default: break;
        }
        break;
      }
      case Level1Label::kDomain: {
        switch (plan.domain) {
          case kDomName:
            AssignFirst(out.domain_name, value);
            break;
          case kDomNameServer:
            if (!value.empty()) out.name_servers.emplace_back(value);
            break;
          case kDomStatus:
            if (!value.empty()) out.statuses.emplace_back(value);
            break;
          case kDomNameFallback:
            if (out.domain_name.empty()) out.domain_name = value;
            break;
          default:
            break;
        }
        break;
      }
      case Level1Label::kDate: {
        switch (plan.date) {
          case kDateCreated: AssignFirst(out.created, value); break;
          case kDateUpdated: AssignFirst(out.updated, value); break;
          case kDateExpires: AssignFirst(out.expires, value); break;
          default: break;
        }
        break;
      }
      case Level1Label::kRegistrant: {
        const Level2Label sub =
            registrant_index < registrant_sub_labels.size()
                ? registrant_sub_labels[registrant_index]
                : Level2Label::kOther;
        ++registrant_index;
        // Block-header lines ("Registrant:" with empty value) carry no data.
        if (value.empty()) break;
        AssignContactField(out.registrant, sub, value);
        break;
      }
      case Level1Label::kOther: {
        if (other_index < other_sub_labels.size() && !value.empty()) {
          AssignContactField(out.other_contact,
                             other_sub_labels[other_index], value);
        }
        ++other_index;
        break;
      }
      case Level1Label::kNull:
        break;
  }
}

}  // namespace

void ExtractFields(const std::vector<text::Line>& lines,
                   const std::vector<Level1Label>& labels,
                   const std::vector<Level2Label>& registrant_sub_labels,
                   ParsedWhois& out,
                   const std::vector<Level2Label>& other_sub_labels) {
  size_t registrant_index = 0;
  size_t other_index = 0;
  std::string title;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view value = SplitTitleValueInto(
        lines[i], text::FindSeparator(lines[i].text), title);
    RouteLine(ComputeRoutePlan(title, value), value, labels[i],
              registrant_sub_labels, registrant_index, other_sub_labels,
              other_index, out);
  }
}

void ExtractFieldsCached(
    const std::vector<text::Line>& lines,
    const std::vector<std::optional<text::SeparatorSplit>>& separators,
    const std::vector<Level1Label>& labels,
    const std::vector<Level2Label>& registrant_sub_labels, ParsedWhois& out,
    FieldRouteCache& cache) {
  static const std::vector<Level2Label> kNoOtherSubs;
  size_t registrant_index = 0;
  size_t other_index = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string_view value =
        SplitTitleValueInto(lines[i], separators[i], cache.title);
    // RouteLine reads the plan only for registrar, domain and date lines;
    // contact and null lines (most of a thick record) skip the memo probe
    // and the value-shape checks.
    const Level1Label label = labels[i];
    const bool planned = label == Level1Label::kRegistrar ||
                         label == Level1Label::kDomain ||
                         label == Level1Label::kDate;
    RouteLine(planned ? CachedRoutePlan(cache.title, value, cache)
                      : LineRoutePlan{},
              value, label, registrant_sub_labels, registrant_index,
              kNoOtherSubs, other_index, out);
  }
}

void LineCacheEntry::Pack(std::span<const double> unary1,
                          std::span<const double> unary2,
                          std::span<const int> trans1,
                          std::span<const int> trans2, std::string_view value,
                          std::string_view key, const LineRoutePlan& plan) {
  const size_t unary_bytes = (unary1.size() + unary2.size()) * sizeof(double);
  const size_t trans_bytes = (trans1.size() + trans2.size()) * sizeof(int);
  const size_t need = unary_bytes + trans_bytes + value.size() + key.size();
  if (need > UINT32_MAX - 15) {
    throw std::length_error("LineCacheEntry: line too long to cache");
  }
  if (need > capacity_) {
    // Rounded up to malloc's 16-byte granule, which costs nothing extra.
    capacity_ = static_cast<uint32_t>((need + 15) & ~size_t{15});
    data_.reset(new std::byte[capacity_]);
  }
  n_unary1_ = static_cast<uint16_t>(unary1.size());
  n_unary2_ = static_cast<uint16_t>(unary2.size());
  n_trans1_ = static_cast<uint16_t>(trans1.size());
  n_trans2_ = static_cast<uint16_t>(trans2.size());
  value_len_ = static_cast<uint32_t>(value.size());
  key_len_ = static_cast<uint32_t>(key.size());
  plan_ = plan;
  std::byte* p = data_.get();
  const auto put = [&p](const void* src, size_t bytes) {
    if (bytes != 0) std::memcpy(p, src, bytes);
    p += bytes;
  };
  put(unary1.data(), unary1.size() * sizeof(double));
  put(unary2.data(), unary2.size() * sizeof(double));
  put(trans1.data(), trans1.size() * sizeof(int));
  put(trans2.data(), trans2.size() * sizeof(int));
  put(value.data(), value.size());
  put(key.data(), key.size());
}

WhoisParser::WhoisParser(std::unique_ptr<crf::CrfModel> level1,
                         std::unique_ptr<crf::CrfModel> level2,
                         WhoisParserOptions options)
    : level1_(std::move(level1)),
      level2_(std::move(level2)),
      options_(options),
      tokenizer_(options_.tokenizer),
      instance_id_(NextParserId()) {
  // Merge the two vocabularies into the single-probe attr table. Interning
  // through it is equivalent to probing each model's vocabulary and slot
  // map separately, by construction.
  const size_t L1 = static_cast<size_t>(level1_->num_labels());
  const size_t L2 = static_cast<size_t>(level2_->num_labels());
  size_t capacity = 16;
  while (capacity < 2 * (level1_->vocab().size() + level2_->vocab().size())) {
    capacity *= 2;
  }
  attr_slots_.assign(capacity, AttrSlot{});
  size_t merged = 0;
  const auto merge = [&](const crf::CrfModel& model, bool second) {
    const text::Vocabulary& vocab = model.vocab();
    for (int id = 0; id < static_cast<int>(vocab.size()); ++id) {
      const std::string& name = vocab.Name(id);
      const uint64_t h = KeyHash(name);
      size_t i = h & (capacity - 1);
      for (;; i = (i + 1) & (capacity - 1)) {
        AttrSlot& slot = attr_slots_[i];
        if (slot.attr.packed < 0) {
          // First sighting: claim the slot and this attribute's row in
          // packed_unary_ (see the header).
          slot.hash = h;
          slot.name_offset = static_cast<uint32_t>(attr_names_.size());
          slot.name_size = static_cast<uint32_t>(name.size());
          attr_names_.append(name);
          slot.attr.packed = static_cast<int32_t>(merged++ * (L1 + L2));
          break;
        }
        const std::string_view stored(attr_names_.data() + slot.name_offset,
                                      slot.name_size);
        if (slot.hash == h && stored == name) break;
      }
      DualAttr& d = attr_slots_[i].attr;
      (second ? d.id2 : d.id1) = id;
      (second ? d.slot2 : d.slot1) = model.TransSlot(id);
    }
  };
  merge(*level1_, false);
  merge(*level2_, true);

  // Pack both levels' unary rows per merged attribute. Weights are final
  // once the parser is constructed, so the copies stay in sync with the
  // models.
  packed_unary_.assign(merged * (L1 + L2), 0.0);
  for (const AttrSlot& slot : attr_slots_) {
    const DualAttr& d = slot.attr;
    if (d.packed < 0) continue;
    double* row = &packed_unary_[static_cast<size_t>(d.packed)];
    if (d.id1 >= 0) {
      std::memcpy(row, &level1_->weights()[static_cast<size_t>(d.id1) * L1],
                  L1 * sizeof(double));
    }
    if (d.id2 >= 0) {
      std::memcpy(row + L1,
                  &level2_->weights()[static_cast<size_t>(d.id2) * L2],
                  L2 * sizeof(double));
    }
  }

  const double* trans1 = &level1_->weights()[level1_->TransitionIndex(0, 0)];
  base_exp1_.resize(L1 * L1);
  for (size_t ij = 0; ij < L1 * L1; ++ij) base_exp1_[ij] = std::exp(trans1[ij]);

  obs::Registry& registry = obs::Registry::Global();
  metrics_.records = registry.GetCounter("whoiscrf_parse_records_total",
                                         "Records parsed on the fast path");
  metrics_.lines = registry.GetCounter("whoiscrf_parse_lines_total",
                                       "Labeled lines seen by Parse");
  metrics_.cache_hits = registry.GetCounter(
      "whoiscrf_compile_cache_hits_total",
      "Lines served from the per-workspace compile cache (tokenization, "
      "word classes, interning, and unary scoring all skipped)");
  metrics_.cache_misses = registry.GetCounter(
      "whoiscrf_compile_cache_misses_total",
      "Lines that ran the full text hot path: tokenize, classify, intern, "
      "and score");
  metrics_.workspace_cold = registry.GetCounter(
      "whoiscrf_parse_workspace_cold_total",
      "Parses that found a workspace last used by a different parser");
  metrics_.latency_us = registry.GetHistogram(
      "whoiscrf_parse_record_latency_us",
      "End-to-end latency of one fast-path Parse",
      {10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000,
       100000});
}

WhoisParser WhoisParser::Train(const std::vector<LabeledRecord>& records,
                               const WhoisParserOptions& options) {
  const text::Tokenizer tokenizer(options.tokenizer);
  const crf::Trainer trainer(options.trainer);

  const auto level1_instances = ToLevel1Instances(records, tokenizer);
  auto level1 = std::make_unique<crf::CrfModel>(
      trainer.Train(Level1Names(), level1_instances));

  auto level2_instances = ToLevel2Instances(records, tokenizer);
  if (level2_instances.empty()) {
    throw std::invalid_argument(
        "WhoisParser::Train: no registrant blocks in training data");
  }
  auto level2 = std::make_unique<crf::CrfModel>(
      trainer.Train(Level2Names(), level2_instances));

  return WhoisParser(std::move(level1), std::move(level2), options);
}

WhoisParser WhoisParser::Adapt(
    const std::vector<LabeledRecord>& records) const {
  const crf::Trainer trainer(options_.trainer);
  const auto level1_instances = ToLevel1Instances(records, tokenizer_);
  auto level1 = std::make_unique<crf::CrfModel>(
      trainer.Adapt(*level1_, level1_instances));
  auto level2_instances = ToLevel2Instances(records, tokenizer_);
  auto level2 =
      level2_instances.empty()
          ? std::make_unique<crf::CrfModel>(*level2_)
          : std::make_unique<crf::CrfModel>(
                trainer.Adapt(*level2_, level2_instances));
  return WhoisParser(std::move(level1), std::move(level2), options_);
}

std::vector<Level1Label> WhoisParser::LabelLines(
    std::string_view record_text) const {
  return Parse(record_text).line_labels;
}

ParsedWhois WhoisParser::Parse(std::string_view record_text) const {
  // One warm workspace per thread keeps the convenience overload on the
  // fast path too.
  static thread_local ParseWorkspace tls_ws;
  return Parse(record_text, tls_ws);
}

ParsedWhois WhoisParser::Parse(std::string_view record_text,
                               ParseWorkspace& ws) const {
  const uint64_t start_us = obs::MonotonicMicros();
  obs::ScopedSpan span("whois.parse");
  ParsedWhois out;
  text::SplitRecordInto(record_text, ws.lines);
  if (ws.lines.empty()) {
    metrics_.records->Inc();
    metrics_.latency_us->Observe(
        static_cast<double>(obs::MonotonicMicros() - start_us));
    return out;
  }

  // The caches and memos hold per-line work for THIS parser's models; a
  // workspace handed over from a different parser starts cold.
  const size_t L1 = static_cast<size_t>(level1_->num_labels());
  const size_t L2 = static_cast<size_t>(level2_->num_labels());
  if (ws.cache_owner != instance_id_) {
    metrics_.workspace_cold->Inc();
    for (LineSlot& slot : ws.slots) slot.entry.Vacate();  // keep buffers
    for (WordSlot& slot : ws.word_slots) slot.len = 0;
    for (TitleMemoSlot& slot : ws.titles) slot.key.clear();
    ResetPairMemo(ws.pairs1, kPairMemoSlots1, 2 * L1 * L1);
    ResetPairMemo(ws.pairs2, kPairMemoSlots2, L2 * L2);
    ws.cache_owner = instance_id_;
  }
  if (ws.slots.empty()) ws.slots.resize(kLineCacheSlots);
  if (ws.word_slots.empty()) ws.word_slots.resize(kWordCacheSlots);
  if (ws.titles.empty()) ws.titles.resize(kTitleMemoSlots);
  const uint64_t record_seq = ++ws.record_seq;
  ws.overflow_used = 0;
  ws.pairs1.overflow_used = 0;
  ws.pairs2.overflow_used = 0;

  ws.unary.resize(L1 + L2);
  const size_t T = ws.lines.size();
  DualInternSink sink(attr_slots_, attr_names_, ws.word_slots, ws.doorkeeper,
                      packed_unary_.data(), L1, L2);

  // Level 1 compile + scoring: a cache hit replaces tokenization, word
  // classification, vocabulary interning, and unary scoring with one hash
  // probe and a row copy. Misses compile the line against BOTH levels in a
  // single tokenization pass (so level 2 below never re-tokenizes) and
  // score it once, into the entry.
  crf::CrfModel::Scores& sc = ws.crf.scores;
  ws.line_entries.assign(T, nullptr);
  sc.T = static_cast<int>(T);
  sc.L = level1_->num_labels();
  sc.unary.resize(T * L1);
  // Pairwise blocks go through the Scores row-pointer tables: lines
  // without observed-transition slots share the model's base transition
  // block (and its exp, computed once per parser); the rest — 18.65 of 24
  // level-1 transitions per census record — read their block from the
  // slot-list memo. Same bits as ComputeScores either way.
  sc.pair_rows.assign(T, nullptr);      // row t=0 is never read
  sc.exp_pair_rows.assign(T, nullptr);
  const double* trans1 = &level1_->weights()[level1_->TransitionIndex(0, 0)];
  const size_t LL1 = L1 * L1;
  size_t cache_hits = 0;  // flushed to the registry once per record
  for (size_t t = 0; t < T; ++t) {
    const text::Line& line = ws.lines[t];
    LineCacheKey(line, ws.key);
    const uint64_t hash = KeyHash(ws.key);
    LineSlot& slot = ws.slots[hash & (kLineCacheSlots - 1)];
    const LineCacheEntry* entry;
    if (slot.hash == hash && slot.entry.key() == ws.key) {
      ++cache_hits;
      slot.record_seq = record_seq;  // pin against same-record eviction
      entry = &slot.entry;
    } else {
      // A first sighting, or a collision with a line this record already
      // points at, packs into the (reused, pointer-stable) overflow pool
      // instead of taking the slot.
      LineCacheEntry* e;
      std::string_view key;
      if (!ws.doorkeeper.SeenBefore(hash) ||
          (!slot.entry.key().empty() && slot.record_seq == record_seq)) {
        e = ws.overflow_used < ws.overflow.size()
                ? &ws.overflow[ws.overflow_used]
                : &ws.overflow.emplace_back();
        ++ws.overflow_used;
      } else {
        slot.hash = hash;
        slot.record_seq = record_seq;
        e = &slot.entry;
        key = ws.key;
      }
      // Compile into the workspace scratch, then pack into the entry.
      sink.BeginLine(ws.compiled1, ws.compiled2, ws.unary.data(),
                     ws.unary.data() + L1);
      // One separator scan serves the tokenizer and the title/value split.
      const auto split = text::FindSeparator(line.text);
      std::string_view value = text::Tokenizer::ValuePart(line, split);
      LineRoutePlan plan;
      FieldRouteCache& routes = ws.field_routes;
      if (split.has_value() && !split->title.empty() &&
          split->title.size() <= kTitleMemoMaxTitle) {
        // Titled line: the prefix's sink state and the title's route plan
        // come from the title memo when its key has been recorded.
        TitleMemoKey(line, *split, ws.title_key);
        const uint64_t title_hash = KeyHash(ws.title_key);
        const TitleMemoSlot* memo =
            FindTitle(ws.titles, title_hash, ws.title_key);
        size_t emitted;
        if (memo != nullptr) {
          sink.RestorePrefix(*memo);
          emitted = memo->emitted;
          plan = memo->plan;
        } else {
          emitted = tokenizer_.ExtractPrefixTo(line, split, sink,
                                               ws.crf.token_scratch);
          routes.title.assign(split->title);
          util::scan::AsciiLower(routes.title.data(), routes.title.size(),
                                 routes.title.data());
          plan = TitleRoutePlan(routes.title, routes);
          if (ws.doorkeeper.SeenBefore(title_hash)) {
            TitleMemoSlot& victim =
                TitleVictim(ws.titles, title_hash, ws.next_title_victim);
            victim.hash = title_hash;
            victim.key.assign(ws.title_key);
            sink.SavePrefix(victim, emitted);
            victim.plan = plan;
          }
        }
        tokenizer_.ExtractValueTo(value, emitted, sink, ws.crf.token_scratch);
        plan = WithValue(plan, value);
      } else {
        const size_t emitted = tokenizer_.ExtractPrefixTo(
            line, split, sink, ws.crf.token_scratch);
        tokenizer_.ExtractValueTo(value, emitted, sink, ws.crf.token_scratch);
        value = SplitTitleValueInto(line, split, routes.title);
        plan = CachedRoutePlan(routes.title, value, routes);
      }
      e->Pack({ws.unary.data(), L1}, {ws.unary.data() + L1, L2},
              ws.compiled1.trans_slots, ws.compiled2.trans_slots, value, key,
              plan);
      entry = e;
    }
    ws.line_entries[t] = entry;
    std::memcpy(&sc.unary[t * L1], entry->unary1(), L1 * sizeof(double));
    if (t > 0) {
      const std::span<const int> slots = entry->trans1();
      if (slots.empty()) {
        sc.pair_rows[t] = trans1;
        sc.exp_pair_rows[t] = base_exp1_.data();
      } else {
        const double* block =
            PairBlock(ws.pairs1, slots, record_seq,
                      [&](double* fresh) {
                        level1_->PairwiseScores(slots, fresh);
                        for (size_t ij = 0; ij < LL1; ++ij) {
                          fresh[LL1 + ij] = std::exp(fresh[ij]);
                        }
                      });
        sc.pair_rows[t] = block;
        sc.exp_pair_rows[t] = block + LL1;
      }
    }
  }

  // Level 1 inference: Viterbi labels plus the path's log-probability (no
  // backward pass, no marginals — Parse never reports per-line
  // confidences). The assembled Scores are bit-identical to ComputeScores
  // on the same lines (cached rows come from UnaryScores/PairwiseScores
  // order sums, exp rows are std::exp of them), and Decode/PathLogProb run
  // the same operations in the same order as Tagger::TagWithConfidence's —
  // so the outputs match ParseNaive exactly.
  const crf::ViterbiResult& level1 = crf::Decode(ws.crf.scores, ws.crf);
  out.log_prob = crf::PathLogProb(ws.crf.scores, level1.labels, ws.crf);
  out.line_labels.reserve(level1.labels.size());
  for (int label : level1.labels) {
    out.line_labels.push_back(static_cast<Level1Label>(label));
  }

  // Level 2 refines both the registrant and the `other` block (admin/tech
  // contacts use the same subfield shapes, and the extracted contact
  // serves as a registrant proxy when the registrant block is missing,
  // §3.2) — straight from the cached level-2 items of the pass above.
  const double* trans2 = &level2_->weights()[level2_->TransitionIndex(0, 0)];
  auto tag_block = [&](Level1Label which, std::vector<Level2Label>& subs) {
    ws.block.clear();
    for (size_t i = 0; i < T; ++i) {
      if (out.line_labels[i] == which) ws.block.push_back(ws.line_entries[i]);
    }
    subs.clear();
    if (ws.block.empty()) return;
    const size_t B = ws.block.size();
    sc.T = static_cast<int>(B);
    sc.L = level2_->num_labels();
    sc.unary.resize(B * L2);
    sc.pair_rows.assign(B, nullptr);  // row t=0 is never read
    sc.exp_pair_rows.clear();         // level 2 only decodes
    for (size_t b = 0; b < B; ++b) {
      const LineCacheEntry& entry = *ws.block[b];
      std::memcpy(&sc.unary[b * L2], entry.unary2(), L2 * sizeof(double));
      if (b > 0) {
        const std::span<const int> slots = entry.trans2();
        sc.pair_rows[b] =
            slots.empty()
                ? trans2
                : PairBlock(ws.pairs2, slots, record_seq,
                            [&](double* fresh) {
                              level2_->PairwiseScores(slots, fresh);
                            });
      }
    }
    const crf::ViterbiResult& sub = crf::Decode(ws.crf.scores, ws.crf);
    for (int label : sub.labels) {
      subs.push_back(static_cast<Level2Label>(label));
    }
  };
  tag_block(Level1Label::kRegistrant, ws.sub_labels);
  tag_block(Level1Label::kOther, ws.other_subs);

  // Field extraction from the cached title/value split — same routing as
  // ExtractFields, minus the per-line separator scan and string building.
  size_t registrant_index = 0;
  size_t other_index = 0;
  for (size_t i = 0; i < T; ++i) {
    const LineCacheEntry& entry = *ws.line_entries[i];
    RouteLine(entry.plan(), entry.value(), out.line_labels[i], ws.sub_labels,
              registrant_index, ws.other_subs, other_index, out);
  }

  metrics_.records->Inc();
  metrics_.lines->Inc(T);
  metrics_.cache_hits->Inc(cache_hits);
  metrics_.cache_misses->Inc(T - cache_hits);
  metrics_.latency_us->Observe(
      static_cast<double>(obs::MonotonicMicros() - start_us));
  return out;
}

ParsedWhois WhoisParser::ParseNaive(std::string_view record_text) const {
  ParsedWhois out;
  const auto lines = text::SplitRecord(record_text);
  if (lines.empty()) return out;

  // ExtractClassic is the frozen pre-fast-path tokenization; together with
  // the per-record allocations and full forward–backward below, this
  // reproduces the original Parse cost model for differential benchmarks.
  std::vector<text::LineAttributes> attrs;
  attrs.reserve(lines.size());
  for (const auto& line : lines) {
    attrs.push_back(tokenizer_.ExtractClassic(line));
  }

  const crf::Tagger level1_tagger(*level1_);
  const crf::TagResult level1 = level1_tagger.TagWithConfidence(attrs);
  out.log_prob = level1.sequence_log_prob;
  out.line_labels.reserve(level1.labels.size());
  for (int label : level1.labels) {
    out.line_labels.push_back(static_cast<Level1Label>(label));
  }

  // Second level: tag the registrant block lines.
  std::vector<text::LineAttributes> registrant_attrs;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (out.line_labels[i] == Level1Label::kRegistrant) {
      registrant_attrs.push_back(attrs[i]);
    }
  }
  std::vector<Level2Label> sub_labels;
  if (!registrant_attrs.empty()) {
    const crf::Tagger level2_tagger(*level2_);
    for (int label : level2_tagger.Tag(registrant_attrs)) {
      sub_labels.push_back(static_cast<Level2Label>(label));
    }
  }

  // The level-2 model also refines `other` blocks: admin/tech contacts use
  // the same subfield shapes, and the extracted contact serves as a
  // registrant proxy when the registrant block is missing (§3.2).
  std::vector<text::LineAttributes> other_attrs;
  for (size_t i = 0; i < lines.size(); ++i) {
    if (out.line_labels[i] == Level1Label::kOther) {
      other_attrs.push_back(attrs[i]);
    }
  }
  std::vector<Level2Label> other_subs;
  if (!other_attrs.empty()) {
    const crf::Tagger level2_tagger(*level2_);
    for (int label : level2_tagger.Tag(other_attrs)) {
      other_subs.push_back(static_cast<Level2Label>(label));
    }
  }

  ExtractFields(lines, out.line_labels, sub_labels, out, other_subs);
  return out;
}

void WhoisParser::Save(std::ostream& os) const {
  WriteU32(os, kParserMagic);
  WriteU32(os, kParserVersion);
  // Tokenizer options: a reloaded parser must tokenize exactly like the
  // one that was trained, or every attribute lookup goes wrong.
  WriteU32(os, static_cast<uint32_t>(options_.tokenizer.max_word_length));
  uint32_t tok_flags = 0;
  if (options_.tokenizer.word_classes) tok_flags |= kTokWordClasses;
  if (options_.tokenizer.layout_markers) tok_flags |= kTokLayoutMarkers;
  if (options_.tokenizer.separator_markers) tok_flags |= kTokSeparatorMarkers;
  WriteU32(os, tok_flags);
  // Trainer scalars, so Adapt() after reload regularizes and prunes the
  // same way the original training run did.
  WriteU32(os, static_cast<uint32_t>(options_.trainer.min_attr_count));
  WriteF64(os, options_.trainer.l2_sigma);
  WriteU32(os, options_.trainer.use_observed_transitions ? 1u : 0u);
  WriteU32(os, static_cast<uint32_t>(options_.trainer.algorithm));
  level1_->Save(os);
  level2_->Save(os);
}

WhoisParser WhoisParser::Load(std::istream& is) {
  WhoisParserOptions options;
  const std::istream::pos_type start = is.tellg();
  if (ReadU32(is, kLoad) == kParserMagic) {
    const uint32_t version = ReadU32(is, kLoad);
    if (version != kParserVersion) {
      throw std::runtime_error("WhoisParser::Load: unsupported version");
    }
    options.tokenizer.max_word_length = ReadU32(is, kLoad);
    const uint32_t tok_flags = ReadU32(is, kLoad);
    options.tokenizer.word_classes = (tok_flags & kTokWordClasses) != 0;
    options.tokenizer.layout_markers = (tok_flags & kTokLayoutMarkers) != 0;
    options.tokenizer.separator_markers =
        (tok_flags & kTokSeparatorMarkers) != 0;
    options.trainer.min_attr_count = ReadU32(is, kLoad);
    options.trainer.l2_sigma = ReadF64(is, kLoad);
    options.trainer.use_observed_transitions = ReadU32(is, kLoad) != 0;
    options.trainer.algorithm = static_cast<crf::Algorithm>(ReadU32(is, kLoad));
  } else {
    // Legacy stream: two bare CrfModels, written before the parser header
    // existed. Rewind and load with default options.
    is.seekg(start);
  }
  auto level1 = std::make_unique<crf::CrfModel>(crf::CrfModel::Load(is));
  auto level2 = std::make_unique<crf::CrfModel>(crf::CrfModel::Load(is));
  return WhoisParser(std::move(level1), std::move(level2), options);
}

void WhoisParser::SaveFile(const std::string& path) const {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("WhoisParser: cannot open " + path);
  Save(os);
}

WhoisParser WhoisParser::LoadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("WhoisParser: cannot open " + path);
  return Load(is);
}

}  // namespace whoiscrf::whois
