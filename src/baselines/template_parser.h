// Template-based baseline parser (paper §2.3 "Template-based";
// deft-whois / Ruby whois analogue).
//
// A template is the exact set of field titles (plus block headers) one
// registrar's format uses, with the label each title maps to. Parsing
// succeeds only when every titled line of the record resolves against a
// single stored template; any unknown title — e.g. after a registrar
// renames one field — fails the whole record, which is precisely the
// fragility the paper measures ("changing a single word in the schema or
// reordering field elements can easily lead to parsing failure").
//
// The templates are compiled at Build time. Every normalized key (field
// titles, block headers, fixed untitled lines) is interned to a dense id,
// each template is one flat id-indexed row of KeyEntry, and each
// template's title-set signature is a bitset over title ids. Parse
// normalizes a line into a reused buffer, resolves it with one probe of a
// flat open-addressed id table, and from then on works with ids only.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "text/line_splitter.h"
#include "text/separator.h"
#include "whois/record.h"

namespace whoiscrf::baselines {

class TemplateBasedParser {
 public:
  struct Result {
    bool matched = false;              // did any template apply cleanly?
    int template_index = -1;           // which one
    std::vector<whois::Level1Label> labels;  // valid only when matched
    // Level-2 labels for the record's registrant lines, in registrant-line
    // order, when every one of them is resolvable from the template:
    // titled lines carry the sub-label their title was learned with (the
    // title is the field's schema, so this is exact), and untitled block
    // lines take the position in the sub-label sequence learned for a
    // block of the same line count. Empty when any line is unresolvable;
    // callers then fall back to their own heuristics.
    std::vector<whois::Level2Label> registrant_subs;
  };

  // Learns one template per distinct title-set in the labeled corpus
  // (the analogue of deft-whois's 575 hand-written template files).
  // Template indices follow the order of the title-sets' normalized text.
  static TemplateBasedParser Build(
      const std::vector<whois::LabeledRecord>& records);

  // Attempts to parse; fails closed when no template covers the record.
  // A titled line whose key no template knows fails the record at once; a
  // record whose exact title-set matches a stored template's signature
  // tries that template first, and the rest are tried in index order.
  // When several templates apply cleanly, which one is reported is
  // unspecified. Safe to call concurrently: per-record scratch is
  // per-thread.
  Result Parse(std::string_view record_text) const;
  // Pre-split overload: `separators` holds text::FindSeparator of each of
  // `lines` (text::FindSeparators), so a caller that extracts fields from
  // the same lines afterwards scans each line for its separator once.
  Result Parse(
      const std::vector<text::Line>& lines,
      const std::vector<std::optional<text::SeparatorSplit>>& separators)
      const;

  size_t num_templates() const { return templates_.size(); }

 private:
  // What one template knows about one interned key; -1 = nothing.
  struct KeyEntry {
    int8_t title = -1;  // Level1Label of titled lines with this title
    // Learned Level2Label of a titled registrant line ("registrant name"
    // -> kName), exact because the title *is* the field's schema.
    int8_t sub = -1;
    int8_t header = -1;  // Level1Label context this key opens
    int8_t bare = -1;    // Level1Label of this key as fixed untitled text
  };

  struct Template {
    // Registrant-block sub-label sequences by block line count (block
    // layout is format structure, but blocks vary in length — optional
    // org, second street line — so each observed length keeps the first
    // sequence that exhibited it). A length seen with two *different*
    // sequences is ambiguous and tombstoned with an empty vector:
    // guessing between layouts is worse than falling back to heuristics.
    std::unordered_map<size_t, std::vector<whois::Level2Label>>
        subs_by_count;
  };

  // One line of a record, resolved once for all template attempts.
  struct ResolvedLine {
    int32_t id = -1;  // interned key, -1 when no template knows it
    bool titled = false;
    bool value_empty = false;
  };

  // Flat open-addressed tables (power-of-two size, at most half full,
  // linear probing, util::KeyHash), built once in Build.
  struct KeySlot {
    uint64_t hash = 0;
    uint32_t name_offset = 0;  // into key_names_
    uint32_t name_size = 0;
    int32_t id = -1;  // -1 marks a vacant slot
  };
  struct SignatureSlot {
    uint64_t hash = 0;
    int32_t template_index = -1;  // -1 marks a vacant slot
  };

  // Per-thread buffers reused across Parse calls (defined in the .cc).
  struct Scratch;
  static Scratch& LocalScratch();

  int32_t FindKey(std::string_view key) const;
  int FindSignature(const std::vector<uint64_t>& title_bits) const;
  const KeyEntry* Row(size_t template_index) const {
    return entries_.data() + template_index * num_keys_;
  }
  const uint64_t* TitleBits(size_t template_index) const {
    return title_bits_.data() + template_index * title_words_;
  }
  bool Apply(size_t template_index, const std::vector<text::Line>& lines,
             const std::vector<ResolvedLine>& keys,
             std::vector<whois::Level1Label>& labels) const;
  // Fills result.registrant_subs after template `index` applied.
  void ResolveRegistrantSubs(size_t index,
                             const std::vector<text::Line>& lines,
                             const std::vector<ResolvedLine>& keys,
                             Result& result) const;

  std::vector<Template> templates_;
  size_t num_keys_ = 0;
  // templates_.size() x num_keys_ entries, one row per template.
  std::vector<KeyEntry> entries_;
  std::vector<KeySlot> key_slots_;
  std::string key_names_;  // every interned key, back to back
  // Per template, the set of title ids it stores as a bitset of
  // title_words_ words. Every record a template was learned from has
  // exactly this title set, so it is also the template's signature, which
  // signature_slots_ indexes by hash. The linear fallback skips a template
  // at once when the record has a title outside its set — Apply would
  // fail on that line anyway.
  size_t title_words_ = 0;
  std::vector<uint64_t> title_bits_;
  std::vector<SignatureSlot> signature_slots_;
};

}  // namespace whoiscrf::baselines
