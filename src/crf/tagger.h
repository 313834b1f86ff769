// Tagger: applies a trained CRF to unlabeled sequences (eq. 5, Viterbi
// decoding), optionally with per-line marginal confidences.
#pragma once

#include <vector>

#include "crf/model.h"

namespace whoiscrf::crf {

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

  const CrfModel& model() const { return model_; }

 private:
  const CrfModel& model_;
};

}  // namespace whoiscrf::crf
