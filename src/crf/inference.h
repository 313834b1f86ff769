// Probabilistic inference for linear-chain CRFs (paper appendix A).
//
// Marginals come from a scaled exp-domain forward-backward (Rabiner
// scaling): the paper's matrices M_t (eq. 9) are used as exp(PairRow(t))
// blocks times exp(unary - max unary), and each forward row is normalized
// to sum to 1, so the literal matrix products of eq. 10 never overflow and
// log Z is the sum of the shifts and the logs of the scales. A sequence
// whose scaled recursion leaves double's range (a zero or non-finite
// scale, or an overflowing backward row) is rerun in the log domain, where
// the M_t are represented by their logarithms (the Scores struct) and
// products become log-sum-exp recursions; that recursion is also
// LogPartition and the reference the tests compare against. The
// log-probability of one path (PathLogProb) runs a rescaled exp-domain
// recursion relative to that path, which avoids both the overflow and the
// cancellation of `score - log Z`.
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
// Runs the scaled exp-domain recursion, reading pairwise blocks from
// `scores.exp_pair_rows` when the caller supplies them (else exponentiating
// PairRow(t) into `ws.exp_pair`); falls back to LogDomainForwardBackward
// only when a scale is zero or not finite, a backward row overflows, or
// log Z is not finite. Scratch: alpha, beta, lse, exp_unary, scales,
// exp_pair.
const Posteriors& ForwardBackward(const CrfModel::Scores& scores,
                                  Workspace& ws, bool with_edges = true);

// The log-domain forward-backward: ForwardBackward's fallback and the
// reference its tests compare against. Same contract as ForwardBackward.
const Posteriors& LogDomainForwardBackward(const CrfModel::Scores& scores,
                                           Workspace& ws,
                                           bool with_edges = true);

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
