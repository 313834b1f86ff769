// WhoisParser — the library's primary public API (the paper's contribution).
//
// A two-level statistical parser (§3.2): a first-level CRF segments a thick
// WHOIS record into six blocks (registrar / domain / date / registrant /
// other / null); a second-level CRF refines registrant blocks into twelve
// contact subfields. Field values are then extracted from each labeled line
// using its title/value separator.
//
// Typical use:
//   auto parser = whois::WhoisParser::Train(labeled_records);
//   whois::ParsedWhois parsed = parser.Parse(record_text);
//   std::cout << parsed.registrant.country;
//
// Models can be persisted with Save/Load, and adapted to new formats with
// Adapt() by supplying a handful of newly labeled examples (§5.3).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "crf/tagger.h"
#include "crf/trainer.h"
#include "crf/workspace.h"
#include "text/separator.h"
#include "text/tokenizer.h"
#include "whois/record.h"
#include "whois/training_data.h"

namespace whoiscrf::obs {
class Counter;
class Histogram;
}  // namespace whoiscrf::obs

namespace whoiscrf::whois {

struct WhoisParserOptions {
  crf::TrainerOptions trainer;
  text::TokenizerOptions tokenizer;
};

// Pre-resolved field-routing decisions for one line. Every title-keyword
// test in RouteLine is a pure function of the cached (title, value) pair,
// so the substring scans run once per distinct line, not once per parse.
// Values are the RegistrarRoute/DomainRoute/DateRoute enums in
// whois_parser.cc; 0 always means "no action".
struct LineRoutePlan {
  uint8_t registrar = 0;
  uint8_t domain = 0;
  uint8_t date = 0;
};

// Memoized compilation + unary scores for one distinct line, for both CRF
// levels. WHOIS corpora repeat lines massively (the paper's survey parses
// 102M records drawn from a few thousand registrar templates), so caching
// by line content skips tokenization, word classification, vocabulary
// interning, and the unary part of scoring on every repeat.
//
// An entry is one heap buffer behind a 32-byte header of lengths and the
// route plan:
//   [unary1 | unary2 | trans1 | trans2 | value bytes | key bytes]
// unary1/unary2 are the levels' pre-summed unary rows (num_labels()
// doubles each) and trans1/trans2 their transition-slot lists, the only
// part of a compiled line CrfModel::PairwiseScores reads; the line's attr
// ids are not kept, since nothing reads them once the rows are summed.
// `value` is the line's field-extraction value, a pure function of the
// text like the plan. `key` is the line-cache key (layout flags + text);
// it is empty for an entry outside the slot array, and an empty key marks
// a vacant slot. Pack repacks in place and grows the buffer only when the
// new line needs more room.
class LineCacheEntry {
 public:
  void Pack(std::span<const double> unary1, std::span<const double> unary2,
            std::span<const int> trans1, std::span<const int> trans2,
            std::string_view value, std::string_view key,
            const LineRoutePlan& plan);
  void Vacate() { key_len_ = 0; }

  const double* unary1() const {
    return reinterpret_cast<const double*>(data_.get());
  }
  const double* unary2() const { return unary1() + n_unary1_; }
  std::span<const int> trans1() const {
    return {reinterpret_cast<const int*>(unary2() + n_unary2_), n_trans1_};
  }
  std::span<const int> trans2() const {
    return {trans1().data() + n_trans1_, n_trans2_};
  }
  std::string_view value() const {
    return {reinterpret_cast<const char*>(trans2().data() + n_trans2_),
            value_len_};
  }
  std::string_view key() const {
    return {value().data() + value_len_, key_len_};
  }
  const LineRoutePlan& plan() const { return plan_; }
  size_t capacity() const { return capacity_; }  // buffer bytes

 private:
  std::unique_ptr<std::byte[]> data_;
  uint32_t capacity_ = 0;
  uint32_t value_len_ = 0;
  uint32_t key_len_ = 0;
  uint16_t n_unary1_ = 0, n_unary2_ = 0;
  uint16_t n_trans1_ = 0, n_trans2_ = 0;
  LineRoutePlan plan_;
};

// One slot of the direct-mapped word cache: memoized attribute emissions
// for a distinct (title flag, raw word) key, inline in 72 bytes — probe,
// key compare, and replay touch a couple of cache lines and nothing on the
// heap. A word's normalized form, class attributes, and vocabulary ids are
// pure functions of its bytes for a fixed parser, so a repeated word —
// even inside a never-seen line — skips normalization, classification,
// and per-attribute hash probes. `emit_count` is the total number of
// attributes the word emits (including ones outside both vocabularies; the
// tokenizer needs it for EMPTYLINE accounting); `mapped` holds only the
// in-vocabulary ones, in emission order, each as its index in the parser's
// flat attr table (which holds both levels' ids and transition slots).
// kWordAttr marks the word attribute itself (vs a class attribute): it
// alone carries the caller's transition flag on replay. Keys longer than
// the inline buffer or words with more mapped attributes than the inline
// array are simply not cached.
struct WordSlot {
  static constexpr size_t kKeyMax = 31;
  static constexpr size_t kMappedMax = 6;
  static constexpr uint32_t kWordAttr = uint32_t{1} << 31;
  uint64_t hash = 0;
  uint8_t len = 0;  // key length; 0 = vacant
  uint8_t emit_count = 0;
  uint8_t n_mapped = 0;
  char key[kKeyMax];
  uint32_t mapped[kMappedMax];
};

// Transparent string hash so map probes can take a string_view key.
struct TransparentStringHash {
  using is_transparent = void;
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(std::string_view(s));
  }
};

// Route-plan memo shared by ExtractFieldsCached and the fast path's
// line-cache misses: plans of *titled* lines keyed by lowered title (for a
// fixed title the plan is value-independent except for the URL check,
// which is re-tested per value), plus a reused lowered-title buffer so
// steady-state extraction allocates nothing. Not thread-safe; use one per
// thread (ParseWorkspace carries one). Plans are pure text functions,
// independent of any parser instance, so the memo never needs
// invalidation. It is emptied when it reaches kMaxTitles, so input with
// endless distinct titles cannot grow a long-lived workspace (a WHOIS
// census has a few hundred distinct titles).
struct FieldRouteCache {
  static constexpr size_t kMaxTitles = 4096;
  std::unordered_map<std::string, LineRoutePlan, TransparentStringHash,
                     std::equal_to<>>
      by_title;
  std::string title;
};

// Admission filter for the line and word caches: one bit per hashed key,
// so a key enters a cache only on its second sighting. One-off lines and
// words (dates, domains, emails) then neither evict template entries nor
// grow slot buffers. The bitset is emptied once half its bits are set,
// which bounds the false "seen before" rate; a false positive only admits
// a key early, and admission never changes a parse's output.
struct Doorkeeper {
  static constexpr int kLog2Bits = 16;
  static constexpr size_t kBits = size_t{1} << kLog2Bits;
  std::vector<uint64_t> bits;  // kBits / 64 words, sized on first use
  size_t set = 0;              // bits currently set
  uint64_t clears = 0;         // times the filter was emptied

  // Records a sighting of `hash`; true if it was already recorded.
  bool SeenBefore(uint64_t hash) {
    if (bits.empty()) bits.assign(kBits / 64, 0);
    const size_t i = static_cast<size_t>(hash >> (64 - kLog2Bits));
    uint64_t& word = bits[i / 64];
    const uint64_t mask = uint64_t{1} << (i % 64);
    if ((word & mask) != 0) return true;
    word |= mask;
    if (++set >= kBits / 2) {
      std::fill(bits.begin(), bits.end(), 0);
      set = 0;
      ++clears;
    }
    return false;
  }
};

// One slot of the direct-mapped line cache. `entry.key()` empty means
// vacant; `record_seq` is the last record that read or wrote the slot,
// which pins it against same-record eviction (line_entries holds raw
// pointers into slots for the duration of one Parse).
struct LineSlot {
  uint64_t hash = 0;
  uint64_t record_seq = 0;
  LineCacheEntry entry;
};

// One slot of the title memo: what the tokenizer's prefix part (layout
// markers, separator attributes, title words) left in the interning sink
// for one (layout flags, separator kind, empty value, raw title) key, plus
// the title's route plan. A line-cache miss whose key hits restores this
// state and tokenizes only the value; since Add sums unary rows in
// emission order and prefix attributes never coincide with value ones,
// the line compiles to the same bits either way.
struct TitleMemoSlot {
  uint64_t hash = 0;
  std::string key;  // empty = vacant
  // Level-1 attr ids, level-1 trans_slots, level-2 attr ids, level-2
  // trans_slots, back to back; `counts` gives the four lengths.
  std::vector<int32_t> ids;
  uint16_t counts[4] = {0, 0, 0, 0};
  std::vector<double> unary;  // L1 then L2 partial unary sums
  uint32_t emitted = 0;       // prefix emissions, for the EMPTYLINE rule
  LineRoutePlan plan;         // the title's plan before the URL override
};

// Memo of pairwise blocks keyed by a compiled item's ordered trans_slots
// list. CrfModel::PairwiseScores is a pure function of that list, and a
// census has few distinct lists (93 at level 1, 28 at level 2), so each
// block is computed once instead of once per line. A level-1 block is
// stored next to its element-wise std::exp for PathLogProb. Direct-mapped
// with a short probe window; `record_seq` pins an entry against eviction
// while the record that set Scores::pair_rows to it is being parsed.
// Lists no entry can take (longer than kMaxKey, or every window entry
// pinned by this record) are computed into `overflow`, reused across
// records like the line cache's pool.
struct PairBlockMemo {
  static constexpr size_t kMaxKey = 8;
  static constexpr size_t kProbe = 4;
  struct Entry {
    uint64_t hash = 0;
    uint64_t record_seq = 0;
    uint32_t len = 0;    // key length; 0 = vacant (empty lists never enter)
    uint32_t block = 0;  // index of this entry's block in `blocks`
    int32_t key[kMaxKey];
  };
  size_t block_size = 0;        // doubles per block
  std::vector<Entry> entries;   // sized on first use
  // One block per entry ever occupied, appended when an entry is first
  // taken (an evicted entry keeps its block). Capacity for every entry is
  // reserved up front, so growth never moves a block a record points at,
  // and only the blocks in use are touched.
  std::vector<double> blocks;
  std::deque<std::vector<double>> overflow;
  size_t overflow_used = 0;
  size_t next_victim = 0;       // rotates evictions through the window
};

// Per-thread scratch for the parsing fast path: split lines, the line
// cache, sub-label buffers, and all CRF inference state. After a few
// records the buffers stop growing and Parse runs allocation-free on
// cache hits (apart from the strings of the ParsedWhois it returns).
struct ParseWorkspace {
  std::vector<text::Line> lines;
  // text::FindSeparators of `lines` (views into them), filled by the
  // cascade for its cheap tiers; the CRF path does not read it.
  std::vector<std::optional<text::SeparatorSplit>> separators;
  std::vector<Level2Label> sub_labels;
  std::vector<Level2Label> other_subs;
  crf::Workspace crf;

  // Line cache: direct-mapped, fixed slot count, eviction on collision.
  // Keyed by layout flags + text — the only Line fields feature extraction
  // reads. Only lines the doorkeeper has seen before are admitted, so
  // one-off lines (dates, domains) compile into `overflow` instead of
  // evicting template lines that repeat across records. Memory stays
  // bounded with no saturation cliff. A miss compiles into the reused
  // `compiled1`/`compiled2`/`unary` scratch and packs the result into its
  // entry in place, so misses allocate nothing once capacities have grown.
  // Entries are valid for exactly one parser instance (`cache_owner`);
  // Parse vacates all slots when handed a workspace last used with a
  // different parser.
  uint64_t cache_owner = 0;
  uint64_t record_seq = 0;
  std::vector<LineSlot> slots;  // sized kLineCacheSlots on first use
  // Lines not admitted to a slot — first sightings, and collisions with a
  // slot this record already points at — compile into this pool (deque:
  // pointer-stable growth); entries are reused across records via
  // `overflow_used`, never destroyed.
  std::deque<LineCacheEntry> overflow;
  size_t overflow_used = 0;
  std::vector<const LineCacheEntry*> line_entries;  // per line, this record
  std::vector<const LineCacheEntry*> block;         // level-2 subset
  std::string key;
  crf::CompiledItem compiled1, compiled2;  // a miss's compiled line
  std::vector<double> unary;               // a miss's L1 + L2 unary rows

  // Word cache, keyed by a title/value flag byte + the raw word bytes.
  // Serves line-cache *misses*: template churn produces novel lines made
  // of familiar words (dates, domains, boilerplate vocabulary), so the
  // per-word work is shared even when the per-line entry cannot be.
  // Direct-mapped with eviction on collision and doorkeeper admission,
  // like the line cache. Validity follows `cache_owner`.
  std::vector<WordSlot> word_slots;  // sized kWordCacheSlots on first use

  // Admission filter shared by the line and word caches.
  Doorkeeper doorkeeper;

  // Route-plan memo for line-cache misses and ExtractFieldsCached (the
  // cascade's cheap tiers). Parser-independent, so it survives cache_owner
  // changes untouched.
  FieldRouteCache field_routes;

  // Title memo for line-cache misses (TitleMemoSlot): direct-mapped with a
  // short probe window, doorkeeper admission like the line cache, sized
  // on first use, validity following `cache_owner`.
  std::vector<TitleMemoSlot> titles;
  size_t next_title_victim = 0;
  std::string title_key;

  // Transition-block memos for level 1 (log and exp blocks) and level 2
  // (log blocks; level 2 only decodes). Validity follows `cache_owner`.
  PairBlockMemo pairs1, pairs2;
};

class WhoisParser {
 public:
  // Trains both CRF levels from labeled records.
  static WhoisParser Train(const std::vector<LabeledRecord>& records,
                           const WhoisParserOptions& options = {});

  // Re-trains from `records` (typically: the original training set plus a
  // handful of newly labeled failure cases), warm-starting from this
  // parser's weights (§5.3 maintainability workflow).
  WhoisParser Adapt(const std::vector<LabeledRecord>& records) const;

  // Parses one thick record: Viterbi-labels every line, then extracts
  // structured fields. Uses a thread-local workspace internally; the
  // overload below lets callers manage workspaces explicitly.
  ParsedWhois Parse(std::string_view record_text) const;

  // Fast-path Parse with caller-provided scratch. Field-identical output
  // (including log_prob, bit-for-bit) to Parse/ParseNaive.
  ParsedWhois Parse(std::string_view record_text, ParseWorkspace& ws) const;

  // The pre-workspace implementation, kept as a differential reference:
  // allocates per line and per record, runs full forward-backward, and
  // builds a fresh tagger per level-2 block. bench_parse_throughput
  // measures the fast path's speedup against it, and tests assert
  // equivalence.
  ParsedWhois ParseNaive(std::string_view record_text) const;

  // Level-1 labels only: Parse(record_text).line_labels, so the §5
  // evaluation harness scores exactly what production parsing emits.
  std::vector<Level1Label> LabelLines(std::string_view record_text) const;

  // --- Persistence ------------------------------------------------------
  void Save(std::ostream& os) const;
  static WhoisParser Load(std::istream& is);
  void SaveFile(const std::string& path) const;
  static WhoisParser LoadFile(const std::string& path);

  const crf::CrfModel& level1_model() const { return *level1_; }
  const crf::CrfModel& level2_model() const { return *level2_; }
  const WhoisParserOptions& options() const { return options_; }

 private:
  WhoisParser(std::unique_ptr<crf::CrfModel> level1,
              std::unique_ptr<crf::CrfModel> level2,
              WhoisParserOptions options);

  // Models are heap-held so the parser stays cheaply movable.
  std::unique_ptr<crf::CrfModel> level1_;
  std::unique_ptr<crf::CrfModel> level2_;
  WhoisParserOptions options_;
  text::Tokenizer tokenizer_;
  // Identifies this parser to ParseWorkspace line caches; drawn from a
  // process-wide counter so ids are never reused.
  uint64_t instance_id_;

  // Registry metrics for the fast path (whoiscrf_parse_*, shared across
  // parser instances; see docs/observability.md). Resolved once at
  // construction so Parse pays only per-thread-sharded relaxed adds —
  // cache hit/miss counts accumulate in locals and flush once per record.
  struct ParseMetrics {
    obs::Counter* records = nullptr;
    obs::Counter* lines = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Counter* workspace_cold = nullptr;
    obs::Histogram* latency_us = nullptr;
  };
  ParseMetrics metrics_;

  // Both levels' vocabularies merged into one attr -> (id, slot) table, so
  // compiling a cache-miss line probes one table per attribute instead of
  // two vocabularies plus two slot maps. -1 marks "not in this level".
  struct DualAttr {
    int id1 = -1, slot1 = -1;
    int id2 = -1, slot2 = -1;
    // Offset of this attribute's row in packed_unary_: L1 doubles of
    // level-1 unary weights followed by L2 of level-2 (zeros where the
    // attribute is absent from a level). -1 marks a vacant AttrSlot.
    int32_t packed = -1;
  };
  // One slot of the flat attr table: open addressing with linear probing
  // over a power-of-two array at most half full, built once at
  // construction. A probe hashes the attribute once (inline, no call),
  // then compares the stored hash before touching the name bytes.
  struct AttrSlot {
    uint64_t hash = 0;
    uint32_t name_offset = 0;  // into attr_names_
    uint32_t name_size = 0;
    DualAttr attr;
  };
  std::vector<AttrSlot> attr_slots_;
  std::string attr_names_;  // every slot's name, back to back

  // std::exp of level 1's base transition block, element by element: the
  // exp-domain row of every level-1 line without transition slots.
  std::vector<double> base_exp1_;

  // Both levels' unary weight rows for each merged attribute, adjacent in
  // one cache-dense table: scoring an interned attribute against both
  // CRFs streams one (L1+L2)-double row instead of gathering from two
  // separately laid-out weight arrays. Values are bit-copies of the
  // models' rows, so sums match CrfModel::UnaryScores exactly.
  std::vector<double> packed_unary_;
};

// Field extraction from labeled lines (exposed for reuse by the baselines
// and tests): routes each line's value into the ParsedWhois struct
// according to its level-1 label and title keywords. `other_sub_labels`
// refines lines labeled `other` into the other-contact proxy fields; pass
// an empty vector to skip that refinement.
void ExtractFields(const std::vector<text::Line>& lines,
                   const std::vector<Level1Label>& labels,
                   const std::vector<Level2Label>& registrant_sub_labels,
                   ParsedWhois& out,
                   const std::vector<Level2Label>& other_sub_labels = {});

// ExtractFields with a per-thread route-plan memo, for callers that
// extract from many records *without* the CRF fast path (whose line cache
// already memoizes plans): the title-keyword scans run once per distinct
// title instead of once per line. `separators` holds text::FindSeparator
// of each line (text::FindSeparators), which the caller has usually
// computed already — the cascade's template tier scans each line once for
// both itself and extraction. Produces exactly what ExtractFields produces.
void ExtractFieldsCached(
    const std::vector<text::Line>& lines,
    const std::vector<std::optional<text::SeparatorSplit>>& separators,
    const std::vector<Level1Label>& labels,
    const std::vector<Level2Label>& registrant_sub_labels, ParsedWhois& out,
    FieldRouteCache& cache);

}  // namespace whoiscrf::whois
