// Probabilistic inference for linear-chain CRFs (paper appendix A).
//
// The partition function and marginals run in the log domain: the paper's
// matrices M_t (eq. 9) are represented by their logarithms (the Scores
// struct), and products of M_t become log-sum-exp recursions. This is
// numerically exact for any sequence length, unlike the literal
// matrix-product form of eq. 10 which overflows for long records. The
// log-probability of one path (PathLogProb) instead runs a rescaled
// exp-domain recursion relative to that path, which avoids both the
// overflow and the cancellation of `score - log Z`.
#pragma once

#include <span>
#include <vector>

#include "crf/model.h"

namespace whoiscrf::crf {

struct Workspace;  // crf/workspace.h

// Result of the forward-backward pass over one sequence.
struct Posteriors {
  int T = 0;
  int L = 0;
  double log_z = 0.0;            // log of eq. 3/10's normalizer
  std::vector<double> node;      // T*L, node[t*L+j]   = Pr(y_t = j | x)
  std::vector<double> edge;      // T*L*L, edge[t*L*L+i*L+j]
                                 //   = Pr(y_{t-1}=i, y_t=j | x), t >= 1
};

// log(sum_i exp(v[i])) over `n` entries, guarded against -inf inputs.
double LogSumExp(const double* v, int n);

// Computes log Z_theta(x) (eq. 10, in log domain) for the given scores.
double LogPartition(const CrfModel::Scores& scores);

// Workspace variant: forward pass only, all scratch taken from `ws`
// (alpha/lse). Bit-identical to LogPartition(scores).
double LogPartition(const CrfModel::Scores& scores, Workspace& ws);

// Full forward-backward: log-partition plus node and edge marginals
// (eq. 12). Requires scores.T >= 1.
Posteriors ForwardBackward(const CrfModel::Scores& scores);

// Workspace variant: fills and returns `ws.post` without allocating once
// the workspace has warmed up. With `with_edges` false the T*L*L edge
// marginals — only the training gradient needs them — are skipped and
// `ws.post.edge` is left empty; log_z and node marginals are still exact.
const Posteriors& ForwardBackward(const CrfModel::Scores& scores,
                                  Workspace& ws, bool with_edges = true);

// Log-probability of a specific label path y under the scores, computed
// without the cancellation of `score(y) - log Z`:
//   log Pr(y | x) = -log1p(eps),  eps = sum_{y' != y} exp(s(y') - s(y)).
// eps comes from a forward pass in the exp domain that runs relative to y
// with two states, "still on y" and "left y"; every term is positive, so
// the result is exact to a few ulps of eps (~1e-14 relative) where
// `score - log Z` loses ~11 of 16 digits. Pairwise blocks are read as
// std::exp of PairRow(t), element by element: from `scores.exp_pair_rows`
// when the caller supplies them, else exponentiated here, so both give the
// same bits. The running sum is rescaled by powers of two when it leaves
// [2^-512, 2^512]; if the result is still not finite (a potential beyond
// exp's range, e.g. a weight below -745 on the path), it falls back to
// `score - LogPartition`. Scratch comes from `ws` (path_eps, exp_pair).
// Every inference path that reports a sequence log-probability calls this,
// so they all agree bit for bit. Requires scores.T >= 1 and
// labels.size() == scores.T.
double PathLogProb(const CrfModel::Scores& scores, std::span<const int> labels,
                   Workspace& ws);

// PathLogProb with a scratch workspace of its own.
double SequenceLogProb(const CrfModel::Scores& scores,
                       const std::vector<int>& labels);

// Brute-force log-partition by explicit enumeration of all L^T paths.
// O(L^T) — only usable for tiny T; exists to validate the dynamic program
// in tests.
double LogPartitionBruteForce(const CrfModel::Scores& scores);

}  // namespace whoiscrf::crf
