// Tagger: applies a trained CRF to unlabeled sequences (eq. 5, Viterbi
// decoding), optionally with per-line marginal confidences.
#pragma once

#include <vector>

#include "crf/model.h"

namespace whoiscrf::crf {

struct Workspace;  // crf/workspace.h

struct TagResult {
  std::vector<int> labels;          // Viterbi path
  std::vector<double> confidences;  // Pr(y_t = labels[t] | x), per line
  double sequence_log_prob = 0.0;   // log Pr(labels | x)
};

class Tagger {
 public:
  explicit Tagger(const CrfModel& model) : model_(model) {}

  // Most likely label per line. Empty input yields an empty result.
  std::vector<int> Tag(const std::vector<text::LineAttributes>& lines) const;

  // Viterbi path plus marginal confidence of each chosen label and the
  // normalized log-probability of the whole path (PathLogProb).
  TagResult TagWithConfidence(
      const std::vector<text::LineAttributes>& lines) const;

  // Posterior (max-marginal) decoding: picks argmax_j Pr(y_t = j | x) per
  // line. Minimizes expected per-line error rather than whole-sequence
  // error — it can differ from Viterbi on ambiguous lines and may produce
  // label sequences no single path would. Useful when the line error rate
  // (Figure 2's metric) is what matters.
  TagResult TagPosterior(
      const std::vector<text::LineAttributes>& lines) const;

  // --- Workspace fast path ---------------------------------------------
  // All three operate on `ws.seq`, which the caller fills first via
  // CrfModel::CompileInto (with this tagger's model), and allocate nothing
  // once the workspace has warmed up.

  // Viterbi labels only (what Tag returns). Returns `ws.viterbi.labels`.
  const std::vector<int>& TagCompiledLabels(Workspace& ws) const;

  // Viterbi labels plus the normalized log-probability of the path
  // (PathLogProb) — no backward pass, no marginals. `labels` and
  // `sequence_log_prob` are bit-identical to TagWithConfidence's;
  // `confidences` is left empty. Returns `ws.tag`.
  const TagResult& TagCompiledViterbi(Workspace& ws) const;

  // Full TagWithConfidence equivalent (labels, per-line marginal
  // confidences, sequence log-prob). Returns `ws.tag`.
  const TagResult& TagCompiled(Workspace& ws) const;

  const CrfModel& model() const { return model_; }

 private:
  const CrfModel& model_;
};

}  // namespace whoiscrf::crf
