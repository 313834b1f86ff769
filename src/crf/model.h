// CrfModel: the parameterized linear-chain CRF (paper §3.1–§3.3).
//
// Feature space layout (all binary features, eq. 1):
//   * unigram features  f(y_t = j, attr a in x_t)          — eq. 6/7 form
//   * transition features f(y_{t-1} = i, y_t = j)           — label bigrams
//   * observed transitions f(y_{t-1}=i, y_t=j, attr a in x_t)
//     for transition-eligible attributes only               — eq. 8 form
//
// Weights are stored in one flat vector:
//   [ A*L unigram | L*L transition | S*L*L observed-transition ]
// where A = vocabulary size, L = number of labels, S = number of
// transition-eligible attribute slots. Unigram features are generated for
// every (attribute x label) pair, as in CRF++; with the paper's dictionary
// of tens of thousands of words this yields feature counts of the same
// order as the paper's ("nearly 1M features" for the first-level CRF).
#pragma once

#include <iosfwd>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "crf/sequence.h"
#include "text/vocabulary.h"

namespace whoiscrf::text {
class Tokenizer;
struct Line;
}  // namespace whoiscrf::text

namespace whoiscrf::crf {

struct Workspace;  // crf/workspace.h

class CrfModel {
 public:
  CrfModel() = default;

  // Constructs an empty (zero-weight) model over the given label names,
  // frozen vocabulary, and transition-eligible attribute ids.
  CrfModel(std::vector<std::string> label_names, text::Vocabulary vocab,
           std::vector<int> transition_attr_ids);

  int num_labels() const { return static_cast<int>(label_names_.size()); }
  const std::vector<std::string>& label_names() const { return label_names_; }
  const text::Vocabulary& vocab() const { return vocab_; }
  size_t num_weights() const { return weights_.size(); }
  size_t num_transition_slots() const { return slot_attrs_.size(); }

  std::vector<double>& weights() { return weights_; }
  const std::vector<double>& weights() const { return weights_; }

  // --- Feature indexing -----------------------------------------------
  size_t UnigramIndex(int attr_id, int label) const;
  size_t TransitionIndex(int prev_label, int label) const;
  size_t ObservedTransitionIndex(int slot, int prev_label, int label) const;

  // Vocabulary attribute id backing a transition slot.
  int SlotAttr(int slot) const { return slot_attrs_[static_cast<size_t>(slot)]; }

  // Transition slot of an interned attribute id, or -1 if the attribute
  // has no observed-transition block. Lets callers precompute combined
  // attr -> (id, slot) tables instead of probing per line.
  int TransSlot(int attr_id) const;

  // --- Compilation ------------------------------------------------------
  // Interns per-line attributes against the model's vocabulary. Unknown
  // attributes are dropped (they have no weights); transition-eligible
  // attributes map to slots when registered.
  CompiledSequence Compile(
      const std::vector<text::LineAttributes>& lines) const;

  // Fused tokenize+compile fast path: runs the tokenizer's streaming
  // extraction over `lines` and interns attributes straight to ids via the
  // transparent-hash Vocabulary::Lookup — no intermediate LineAttributes,
  // no string materialization beyond the workspace scratch. Fills `ws.seq`
  // (reusing its storage) with exactly what
  // Compile(tokenizer.Extract(each line)) would produce.
  void CompileInto(const text::Tokenizer& tokenizer,
                   std::span<const text::Line> lines, Workspace& ws) const;

  // Same, over a subset of lines given by pointer (the level-2 pass tags a
  // scattered subset of the record's lines).
  void CompileInto(const text::Tokenizer& tokenizer,
                   std::span<const text::Line* const> lines,
                   Workspace& ws) const;

  // --- Scoring ----------------------------------------------------------
  // Log-potentials for a compiled sequence:
  //   unary[t*L + j]            = sum of unigram weights at t for label j
  //   pairwise[t*L*L + i*L + j] = transition + observed-transition weights
  //                               (defined for t >= 1)
  // These are the log M_t matrices of the appendix (eq. 9), split so the
  // unary part is reusable by both inference and Viterbi.
  struct Scores {
    int T = 0;
    int L = 0;
    std::vector<double> unary;     // T*L
    std::vector<double> pairwise;  // T*L*L, row t=0 unused
    // Optional row indirection: when non-empty, pair_rows[t] points at the
    // L*L pairwise block for position t and `pairwise` is just backing
    // storage for the rows that needed computing. Lines without observed-
    // transition attributes share the model's base transition block through
    // this table instead of each holding a copy — the values read through
    // PairRow are bit-identical either way. ComputeScores clears it (dense
    // layout); the WHOIS fast path fills it.
    std::vector<const double*> pair_rows;
    // Optional exp-domain twin of the rows: when non-empty,
    // exp_pair_rows[t] points at std::exp of PairRow(t), element by
    // element, for PathLogProb to read instead of exponentiating the
    // block itself. ComputeScores clears it; the WHOIS fast path fills it
    // from its transition-block memo.
    std::vector<const double*> exp_pair_rows;

    // The L*L pairwise block for position t >= 1. All inference and
    // decoding reads go through this accessor.
    const double* PairRow(int t) const {
      return pair_rows.empty()
                 ? &pairwise[static_cast<size_t>(t) * L * L]
                 : pair_rows[static_cast<size_t>(t)];
    }
  };
  Scores ComputeScores(const CompiledSequence& seq) const;

  // Allocation-reusing variant: refills `out` in place.
  void ComputeScores(const CompiledSequence& seq, Scores& out) const;

  // Unary score row for one compiled item: out[j] (L doubles) = sum of the
  // item's unigram weights for label j. Accumulates in the same order as
  // ComputeScores, so memoized rows are bit-identical to a fresh run.
  void UnaryScores(const CompiledItem& item, double* out) const;

  // Pairwise score block for one compiled item's `trans_slots`: out (L*L
  // doubles) = transition weights plus those slots' observed-transition
  // matrices. This is the t >= 1 pairwise block of ComputeScores — it
  // depends only on the slot list, not on the item's attrs or position —
  // accumulated in the same order, so memoized blocks are bit-identical to
  // a fresh run.
  void PairwiseScores(std::span<const int> trans_slots, double* out) const;

  // Label id by name, or -1.
  int LabelId(std::string_view name) const;

  // --- Serialization ----------------------------------------------------
  void Save(std::ostream& os) const;
  static CrfModel Load(std::istream& is);
  void SaveFile(const std::string& path) const;
  static CrfModel LoadFile(const std::string& path);

 private:
  // Pairwise log-potentials (transition + observed-transition weights) for
  // t >= 1; shared by both ComputeScores variants.
  void FillPairwise(const CompiledSequence& seq, Scores& s) const;

  std::vector<std::string> label_names_;
  text::Vocabulary vocab_;
  std::unordered_map<int, int> slot_of_attr_;  // attr id -> slot
  std::vector<int> slot_attrs_;                // slot -> attr id
  std::vector<double> weights_;

  size_t unigram_block_ = 0;     // A*L
  size_t transition_block_ = 0;  // L*L
};

}  // namespace whoiscrf::crf
