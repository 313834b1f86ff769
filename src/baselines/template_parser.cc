#include "baselines/template_parser.h"

#include <algorithm>
#include <map>
#include <utility>

#include "baselines/rule_parser.h"
#include "text/word_classes.h"
#include "util/byte_scan.h"
#include "util/key_hash.h"
#include "util/string_util.h"

namespace whoiscrf::baselines {

namespace {

using whois::Level1Label;
using whois::Level2Label;

// Power-of-two capacity holding `n` entries at most half full, so every
// linear probe reaches a vacant slot.
size_t TableCapacity(size_t n) {
  size_t capacity = 16;
  while (capacity < 2 * n) capacity *= 2;
  return capacity;
}

uint64_t BitsHash(const uint64_t* words, size_t n) {
  return util::KeyHash(
      {reinterpret_cast<const char*>(words), n * sizeof(uint64_t)});
}

bool IsTitled(const std::optional<text::SeparatorSplit>& sep) {
  return sep.has_value() && !sep->title.empty();
}

}  // namespace

struct TemplateBasedParser::Scratch {
  // The split record, for Parse(string_view) only.
  std::vector<text::Line> lines;
  std::vector<std::optional<text::SeparatorSplit>> separators;
  std::vector<ResolvedLine> keys;
  // The record's title ids as a bitset (title_words_ words).
  std::vector<uint64_t> title_bits;
  // Normalization buffer.
  std::string key;
};

TemplateBasedParser::Scratch& TemplateBasedParser::LocalScratch() {
  thread_local Scratch scratch;
  return scratch;
}

TemplateBasedParser TemplateBasedParser::Build(
    const std::vector<whois::LabeledRecord>& records) {
  // Build-time interning; Parse resolves keys through the flat table
  // filled at the end. Only keys a template stores are interned, so
  // per-record contact values never reach the id space.
  std::unordered_map<std::string, int32_t> ids;
  std::vector<const std::string*> names;
  const auto intern = [&ids, &names](const std::string& key) {
    const auto [it, inserted] =
        ids.emplace(key, static_cast<int32_t>(names.size()));
    if (inserted) names.push_back(&it->first);
    return it->second;
  };

  // One template per signature: the record's sorted set of normalized
  // titles. Records from the same template family share a signature;
  // distinct formats get distinct templates, mirroring per-registrar
  // template files. The map's order of the signature text fixes the
  // template indices.
  struct Draft {
    Template tpl;
    std::vector<KeyEntry> row;  // grown to the highest id stored
  };
  std::map<std::string, Draft> by_signature;

  std::vector<std::optional<text::SeparatorSplit>> separators;
  std::vector<std::string> keys;
  std::vector<std::string_view> titles;
  for (const whois::LabeledRecord& record : records) {
    record.Validate();
    const auto lines = text::SplitRecord(record.text);
    text::FindSeparators(lines, separators);
    keys.resize(lines.size());
    titles.clear();
    for (size_t i = 0; i < lines.size(); ++i) {
      const bool titled = IsTitled(separators[i]);
      RuleBasedParser::NormalizeTitleInto(
          titled ? separators[i]->title : std::string_view(lines[i].text),
          keys[i]);
      if (titled) titles.push_back(keys[i]);
    }
    std::sort(titles.begin(), titles.end());
    titles.erase(std::unique(titles.begin(), titles.end()), titles.end());
    std::string signature_text;
    for (const std::string_view t : titles) {
      signature_text += t;
      signature_text += '\x1f';
    }
    Draft& draft = by_signature[signature_text];
    const auto entry = [&draft, &intern](const std::string& key)
        -> KeyEntry& {
      const auto id = static_cast<size_t>(intern(key));
      if (draft.row.size() <= id) draft.row.resize(id + 1);
      return draft.row[id];
    };

    std::vector<Level2Label> subs;
    for (size_t i = 0; i < lines.size(); ++i) {
      if (record.labels[i] == Level1Label::kRegistrant) {
        subs.push_back(record.sub_labels[i].value_or(Level2Label::kOther));
      }
    }
    // Two same-length blocks with different layouts (name-first vs
    // org-first) make the count ambiguous; an empty sequence tombstones
    // it so parsing falls back to heuristics instead of guessing wrong
    // half the time.
    auto& subs_by_count = draft.tpl.subs_by_count;
    if (const auto sit = subs_by_count.find(subs.size());
        sit == subs_by_count.end()) {
      subs_by_count.emplace(subs.size(), std::move(subs));
    } else if (!sit->second.empty() && sit->second != subs) {
      sit->second.clear();
    }

    // Every table keeps the first label a key was stored with.
    for (size_t i = 0; i < lines.size(); ++i) {
      const Level1Label label = record.labels[i];
      const auto code = static_cast<int8_t>(label);
      if (IsTitled(separators[i])) {
        KeyEntry& e = entry(keys[i]);
        if (e.title < 0) e.title = code;
        // A titled registrant line's title names the exact sub-field
        // ("registrant name" -> kName); remember it so parsing can
        // sub-label titled lines without positional guessing.
        if (e.title == static_cast<int8_t>(Level1Label::kRegistrant) &&
            e.sub < 0) {
          e.sub = static_cast<int8_t>(
              record.sub_labels[i].value_or(Level2Label::kOther));
        }
        if (separators[i]->value.empty() && e.header < 0) e.header = code;
        continue;
      }
      if (keys[i].empty()) continue;
      // Per-record contact values (names, phones) are NOT template
      // structure; only fixed non-contact text is stored verbatim.
      const bool bare = label != Level1Label::kRegistrant &&
                        label != Level1Label::kOther;
      // An untitled line acts as a header only when it STARTS a run of
      // same-label lines; block member lines must not become headers.
      const bool starts_block = i == 0 || lines[i].preceded_by_blank ||
                                record.labels[i - 1] != label;
      const bool header = starts_block && i + 1 < lines.size() &&
                          record.labels[i + 1] == label;
      if (!bare && !header) continue;
      KeyEntry& e = entry(keys[i]);
      if (bare && e.bare < 0) e.bare = code;
      if (header && e.header < 0) e.header = code;
    }
  }

  TemplateBasedParser parser;
  parser.num_keys_ = names.size();
  parser.templates_.reserve(by_signature.size());
  parser.entries_.resize(by_signature.size() * parser.num_keys_);
  for (auto& [text, draft] : by_signature) {
    std::copy(draft.row.begin(), draft.row.end(),
              parser.entries_.begin() +
                  static_cast<std::ptrdiff_t>(parser.templates_.size() *
                                              parser.num_keys_));
    parser.templates_.push_back(std::move(draft.tpl));
  }

  parser.title_words_ = (parser.num_keys_ + 63) / 64;
  parser.title_bits_.assign(parser.templates_.size() * parser.title_words_,
                            0);
  for (size_t t = 0; t < parser.templates_.size(); ++t) {
    const KeyEntry* row = parser.Row(t);
    uint64_t* bits = &parser.title_bits_[t * parser.title_words_];
    for (size_t id = 0; id < parser.num_keys_; ++id) {
      if (row[id].title >= 0) bits[id / 64] |= uint64_t{1} << (id % 64);
    }
  }

  const size_t key_mask = TableCapacity(names.size()) - 1;
  parser.key_slots_.assign(key_mask + 1, KeySlot{});
  for (size_t id = 0; id < names.size(); ++id) {
    const std::string& name = *names[id];
    const uint64_t h = util::KeyHash(name);
    size_t i = h & key_mask;
    while (parser.key_slots_[i].id >= 0) i = (i + 1) & key_mask;
    parser.key_slots_[i] = {h, static_cast<uint32_t>(parser.key_names_.size()),
                            static_cast<uint32_t>(name.size()),
                            static_cast<int32_t>(id)};
    parser.key_names_ += name;
  }

  const size_t sig_mask = TableCapacity(parser.templates_.size()) - 1;
  parser.signature_slots_.assign(sig_mask + 1, SignatureSlot{});
  for (size_t t = 0; t < parser.templates_.size(); ++t) {
    const uint64_t h = BitsHash(parser.TitleBits(t), parser.title_words_);
    size_t i = h & sig_mask;
    while (parser.signature_slots_[i].template_index >= 0) {
      i = (i + 1) & sig_mask;
    }
    parser.signature_slots_[i] = {h, static_cast<int32_t>(t)};
  }
  return parser;
}

int32_t TemplateBasedParser::FindKey(std::string_view key) const {
  const uint64_t h = util::KeyHash(key);
  const size_t mask = key_slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const KeySlot& slot = key_slots_[i];
    if (slot.id < 0) return -1;
    if (slot.hash == h && slot.name_size == key.size() &&
        key_names_.compare(slot.name_offset, slot.name_size, key) == 0) {
      return slot.id;
    }
  }
}

int TemplateBasedParser::FindSignature(
    const std::vector<uint64_t>& title_bits) const {
  const uint64_t h = BitsHash(title_bits.data(), title_words_);
  const size_t mask = signature_slots_.size() - 1;
  for (size_t i = h & mask;; i = (i + 1) & mask) {
    const SignatureSlot& slot = signature_slots_[i];
    if (slot.template_index < 0) return -1;
    if (slot.hash == h &&
        std::equal(title_bits.begin(), title_bits.end(),
                   TitleBits(static_cast<size_t>(slot.template_index)))) {
      return slot.template_index;
    }
  }
}

bool TemplateBasedParser::Apply(size_t template_index,
                                const std::vector<text::Line>& lines,
                                const std::vector<ResolvedLine>& keys,
                                std::vector<Level1Label>& labels) const {
  const KeyEntry* row = Row(template_index);
  labels.clear();
  int8_t context = -1;  // label untitled block lines inherit; -1 = none

  for (size_t i = 0; i < lines.size(); ++i) {
    if (lines[i].preceded_by_blank) context = -1;
    const ResolvedLine& lk = keys[i];
    // Parse already failed the record on a titled line with no id.
    const KeyEntry* e = lk.id >= 0 ? &row[lk.id] : nullptr;
    if (lk.titled) {
      if (e->title < 0) return false;  // unknown title: does not apply
      labels.push_back(static_cast<Level1Label>(e->title));
      if (e->header >= 0 && lk.value_empty) context = e->header;
      continue;
    }
    if (e != nullptr && e->header >= 0) {
      context = e->header;
      labels.push_back(static_cast<Level1Label>(e->header));
      continue;
    }
    if (context >= 0) {
      labels.push_back(static_cast<Level1Label>(context));
      continue;
    }
    if (e != nullptr && e->bare >= 0) {
      labels.push_back(static_cast<Level1Label>(e->bare));
      continue;
    }
    return false;  // untitled line the template cannot account for
  }
  return true;
}

void TemplateBasedParser::ResolveRegistrantSubs(
    size_t index, const std::vector<text::Line>& lines,
    const std::vector<ResolvedLine>& keys, Result& result) const {
  // Titled lines carry the exact sub their title was learned with;
  // untitled block lines take their position in the sequence learned for
  // a same-length block. Any unresolvable line leaves registrant_subs
  // empty — a partial sub-labeling would misalign downstream extraction.
  const size_t count = static_cast<size_t>(
      std::count(result.labels.begin(), result.labels.end(),
                 Level1Label::kRegistrant));
  if (count == 0) return;
  const Template& tpl = templates_[index];
  const KeyEntry* row = Row(index);
  const auto seq = tpl.subs_by_count.find(count);
  const std::vector<Level2Label>* positional =
      seq != tpl.subs_by_count.end() && !seq->second.empty() ? &seq->second
                                                             : nullptr;
  std::vector<Level2Label> subs;
  subs.reserve(count);
  for (size_t i = 0; i < result.labels.size(); ++i) {
    if (result.labels[i] != Level1Label::kRegistrant) continue;
    int sub = keys[i].titled ? row[keys[i].id].sub : -1;
    if (sub < 0 && positional != nullptr) {
      sub = static_cast<int>((*positional)[subs.size()]);
      // A positional sequence is a layout hypothesis — same-length
      // blocks can differ (an optional org line shifts everything).
      // Concrete content cues veto a hypothesis that contradicts the
      // line it labels: a person/org slot must not hold a street,
      // phone, or email, and an email slot must hold one. One vetoed
      // line rejects the whole sequence and the record falls back to
      // the heuristic guesses.
      const auto s = static_cast<Level2Label>(sub);
      const std::string_view trimmed = util::Trim(lines[i].text);
      const std::string_view first_word = trimmed.substr(
          0, util::scan::FindClass(trimmed, util::scan::kSpace));
      const bool email_like = trimmed.find('@') != std::string_view::npos;
      const bool street_like = util::IsDigits(first_word);
      const bool phone_like =
          text::IsPhoneLike(trimmed) && !util::IsDigits(trimmed);
      const bool contact_slot =
          s == Level2Label::kName || s == Level2Label::kOrg;
      if ((contact_slot && (street_like || phone_like || email_like)) ||
          (s == Level2Label::kName &&
           RuleBasedParser::LooksLikeOrgName(trimmed)) ||
          (s == Level2Label::kEmail && !email_like) ||
          (s != Level2Label::kEmail && email_like)) {
        sub = -1;
      }
    }
    if (sub < 0) return;
    subs.push_back(static_cast<Level2Label>(sub));
  }
  result.registrant_subs = std::move(subs);
}

TemplateBasedParser::Result TemplateBasedParser::Parse(
    std::string_view record_text) const {
  Scratch& scratch = LocalScratch();
  text::SplitRecordInto(record_text, scratch.lines);
  text::FindSeparators(scratch.lines, scratch.separators);
  return Parse(scratch.lines, scratch.separators);
}

TemplateBasedParser::Result TemplateBasedParser::Parse(
    const std::vector<text::Line>& lines,
    const std::vector<std::optional<text::SeparatorSplit>>& separators)
    const {
  // Resolve every line once; template attempts below index flat rows.
  Scratch& scratch = LocalScratch();
  std::vector<ResolvedLine>& keys = scratch.keys;
  std::vector<uint64_t>& titles = scratch.title_bits;
  keys.resize(lines.size());
  titles.assign(title_words_, 0);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::optional<text::SeparatorSplit>& sep = separators[i];
    ResolvedLine& lk = keys[i];
    lk.titled = IsTitled(sep);
    lk.value_empty = lk.titled && sep->value.empty();
    RuleBasedParser::NormalizeTitleInto(
        lk.titled ? sep->title : std::string_view(lines[i].text),
        scratch.key);
    lk.id = FindKey(scratch.key);
    if (lk.titled) {
      // A title no template stores fails every template: fail closed now.
      if (lk.id < 0) return Result{};
      titles[static_cast<size_t>(lk.id) / 64] |= uint64_t{1} << (lk.id % 64);
    }
  }

  Result result;
  result.labels.reserve(lines.size());
  const auto finish = [&](size_t index) {
    result.matched = true;
    result.template_index = static_cast<int>(index);
    ResolveRegistrantSubs(index, lines, keys, result);
    return std::move(result);
  };
  // Fast path: the record's exact title-set names one stored template.
  const int indexed = FindSignature(titles);
  if (indexed >= 0 &&
      Apply(static_cast<size_t>(indexed), lines, keys, result.labels)) {
    return finish(static_cast<size_t>(indexed));
  }
  // Slow path: a record with dropped or inherited-context lines can still
  // satisfy a template whose signature is a superset of its titles. Only
  // templates storing every title of the record are tried.
  for (size_t t = 0; t < templates_.size(); ++t) {
    if (static_cast<int>(t) == indexed) continue;  // already tried
    const uint64_t* known = TitleBits(t);
    bool covered = true;
    for (size_t w = 0; w < title_words_; ++w) {
      if ((titles[w] & ~known[w]) != 0) covered = false;
    }
    if (covered && Apply(t, lines, keys, result.labels)) return finish(t);
  }
  return Result{};
}

}  // namespace whoiscrf::baselines
