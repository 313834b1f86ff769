// Viterbi decoding (paper eqs. 13-17): the most likely label sequence under
// the model, computed by dynamic programming with backtracking in O(L^2 T).
#pragma once

#include <vector>

#include "crf/model.h"

namespace whoiscrf::crf {

struct Workspace;  // crf/workspace.h

struct ViterbiResult {
  std::vector<int> labels;  // argmax path, length T
  double score = 0.0;       // unnormalized log-score of the path (eq. 13 sum)
};

// Decodes the best path for the given log-potentials. Requires scores.T >= 1.
ViterbiResult Decode(const CrfModel::Scores& scores);

// Workspace variant: DP tables and the result live in `ws`
// (viterbi_score/viterbi_back/viterbi), so repeated decoding allocates
// nothing once the workspace has warmed up. Returns `ws.viterbi`.
const ViterbiResult& Decode(const CrfModel::Scores& scores, Workspace& ws);

// Brute-force argmax over all L^T paths, for validating Decode in tests.
ViterbiResult DecodeBruteForce(const CrfModel::Scores& scores);

}  // namespace whoiscrf::crf
