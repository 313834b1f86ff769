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

const std::vector<int>& Tagger::TagCompiledLabels(Workspace& ws) const {
  if (ws.seq.empty()) {
    ws.viterbi.labels.clear();
    ws.viterbi.score = 0.0;
    return ws.viterbi.labels;
  }
  model_.ComputeScores(ws.seq, ws.scores);
  return Decode(ws.scores, ws).labels;
}

const TagResult& Tagger::TagCompiledViterbi(Workspace& ws) const {
  TagResult& result = ws.tag;
  result.labels.clear();
  result.confidences.clear();
  result.sequence_log_prob = 0.0;
  if (ws.seq.empty()) return result;
  model_.ComputeScores(ws.seq, ws.scores);
  const ViterbiResult& vit = Decode(ws.scores, ws);
  result.labels.assign(vit.labels.begin(), vit.labels.end());
  // No backward pass and no marginals: the path's log-probability is one
  // exp-domain forward pass relative to the path.
  result.sequence_log_prob = PathLogProb(ws.scores, result.labels, ws);
  return result;
}

const TagResult& Tagger::TagCompiled(Workspace& ws) const {
  TagResult& result = ws.tag;
  result.labels.clear();
  result.confidences.clear();
  result.sequence_log_prob = 0.0;
  if (ws.seq.empty()) return result;
  model_.ComputeScores(ws.seq, ws.scores);
  const ViterbiResult& vit = Decode(ws.scores, ws);
  const Posteriors& post = ForwardBackward(ws.scores, ws, /*with_edges=*/false);
  result.labels.assign(vit.labels.begin(), vit.labels.end());
  result.confidences.reserve(vit.labels.size());
  for (size_t t = 0; t < vit.labels.size(); ++t) {
    result.confidences.push_back(
        post.node[t * static_cast<size_t>(ws.scores.L) +
                  static_cast<size_t>(vit.labels[t])]);
  }
  result.sequence_log_prob = PathLogProb(ws.scores, result.labels, ws);
  return result;
}

}  // namespace whoiscrf::crf
