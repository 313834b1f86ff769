#include "crf/tagger.h"

#include "crf/inference.h"
#include "crf/viterbi.h"
#include "crf/workspace.h"

namespace whoiscrf::crf {

std::vector<int> Tagger::Tag(
    const std::vector<text::LineAttributes>& lines) const {
  if (lines.empty()) return {};
  const CompiledSequence seq = model_.Compile(lines);
  const CrfModel::Scores scores = model_.ComputeScores(seq);
  return Decode(scores).labels;
}

TagResult Tagger::TagPosterior(
    const std::vector<text::LineAttributes>& lines) const {
  TagResult result;
  if (lines.empty()) return result;
  const CompiledSequence seq = model_.Compile(lines);
  const CrfModel::Scores scores = model_.ComputeScores(seq);
  const Posteriors post = ForwardBackward(scores);
  const int L = scores.L;
  result.labels.reserve(lines.size());
  result.confidences.reserve(lines.size());
  for (int t = 0; t < post.T; ++t) {
    int best = 0;
    double best_p = -1.0;
    for (int j = 0; j < L; ++j) {
      const double p = post.node[static_cast<size_t>(t) * L + j];
      if (p > best_p) {
        best_p = p;
        best = j;
      }
    }
    result.labels.push_back(best);
    result.confidences.push_back(best_p);
  }
  result.sequence_log_prob = SequenceLogProb(scores, result.labels);
  return result;
}

TagResult Tagger::TagWithConfidence(
    const std::vector<text::LineAttributes>& lines) const {
  TagResult result;
  if (lines.empty()) return result;
  const CompiledSequence seq = model_.Compile(lines);
  const CrfModel::Scores scores = model_.ComputeScores(seq);
  Workspace ws;
  const ViterbiResult& vit = Decode(scores, ws);
  const Posteriors& post = ForwardBackward(scores, ws);

  result.labels = vit.labels;
  result.confidences.reserve(vit.labels.size());
  for (size_t t = 0; t < vit.labels.size(); ++t) {
    result.confidences.push_back(
        post.node[t * static_cast<size_t>(scores.L) +
                  static_cast<size_t>(vit.labels[t])]);
  }
  result.sequence_log_prob = PathLogProb(scores, result.labels, ws);
  return result;
}

}  // namespace whoiscrf::crf
