#include "crf/viterbi.h"

#include <limits>
#include <stdexcept>

#include "crf/workspace.h"

namespace whoiscrf::crf {

ViterbiResult Decode(const CrfModel::Scores& s) {
  Workspace ws;
  Decode(s, ws);
  return std::move(ws.viterbi);
}

const ViterbiResult& Decode(const CrfModel::Scores& s, Workspace& ws) {
  if (s.T <= 0) throw std::invalid_argument("Viterbi: empty sequence");
  const int T = s.T;
  const int L = s.L;

  // V[t*L+j] is eq. 14/15's matrix; back[t*L+j] records eq. 16's argmax.
  std::vector<double>& V = ws.viterbi_score;
  std::vector<int>& back = ws.viterbi_back;
  // resize, not assign: every entry read below (rows 1..T-1 of `back`, all
  // of V) is written first; row 0 of `back` is never read.
  V.resize(static_cast<size_t>(T) * L);
  back.resize(static_cast<size_t>(T) * L);

  for (int j = 0; j < L; ++j) V[static_cast<size_t>(j)] = s.unary[static_cast<size_t>(j)];
  for (int t = 1; t < T; ++t) {
    const double* V_prev = &V[static_cast<size_t>(t - 1) * L];
    const double* pair_t = s.PairRow(t);
    for (int j = 0; j < L; ++j) {
      double best = -std::numeric_limits<double>::infinity();
      int best_i = 0;
      for (int i = 0; i < L; ++i) {
        const double cand = V_prev[i] + pair_t[i * L + j];
        if (cand > best) {
          best = cand;
          best_i = i;
        }
      }
      V[static_cast<size_t>(t) * L + j] =
          best + s.unary[static_cast<size_t>(t) * L + j];
      back[static_cast<size_t>(t) * L + j] = best_i;
    }
  }

  ViterbiResult& result = ws.viterbi;
  result.labels.assign(static_cast<size_t>(T), 0);
  double best = -std::numeric_limits<double>::infinity();
  for (int j = 0; j < L; ++j) {
    if (V[static_cast<size_t>(T - 1) * L + j] > best) {
      best = V[static_cast<size_t>(T - 1) * L + j];
      result.labels[static_cast<size_t>(T - 1)] = j;
    }
  }
  result.score = best;
  for (int t = T - 1; t > 0; --t) {  // eq. 17 backtracking
    result.labels[static_cast<size_t>(t - 1)] =
        back[static_cast<size_t>(t) * L + result.labels[static_cast<size_t>(t)]];
  }
  return result;
}

ViterbiResult DecodeBruteForce(const CrfModel::Scores& s) {
  if (s.T <= 0) throw std::invalid_argument("Viterbi: empty sequence");
  const int T = s.T;
  const int L = s.L;
  ViterbiResult best;
  best.score = -std::numeric_limits<double>::infinity();
  std::vector<int> labels(static_cast<size_t>(T), 0);
  while (true) {
    double score = 0.0;
    for (int t = 0; t < T; ++t) {
      score += s.unary[static_cast<size_t>(t) * L + labels[static_cast<size_t>(t)]];
      if (t >= 1) {
        score += s.PairRow(t)[labels[static_cast<size_t>(t - 1)] * L +
                              labels[static_cast<size_t>(t)]];
      }
    }
    if (score > best.score) {
      best.score = score;
      best.labels = labels;
    }
    int pos = 0;
    while (pos < T) {
      if (++labels[static_cast<size_t>(pos)] < L) break;
      labels[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == T) break;
  }
  return best;
}

}  // namespace whoiscrf::crf
