// Reusable scratch for CRF inference (the "allocation-free fast path").
//
// Every inference primitive — ComputeScores, ForwardBackward, Viterbi —
// needs O(T*L) .. O(T*L*L) working memory. The classic entry points
// allocate it per call, which is fine for training but dominates the cost
// of tagging millions of small records. A Workspace owns all of those
// buffers; the `*Into`/workspace overloads fill them with `assign`/`clear`
// so capacity is reused and, once the buffers have grown to the largest
// record seen, inference runs with zero heap allocations.
//
// A Workspace is NOT thread-safe: use one per thread (each
// whois::ParseStream worker owns one). It is model-agnostic — the same workspace can
// be reused across models with different L or vocabulary (buffers are
// always resized by the callee).
#pragma once

#include <vector>

#include "crf/inference.h"
#include "crf/model.h"
#include "crf/sequence.h"
#include "crf/viterbi.h"
#include "text/tokenizer.h"

namespace whoiscrf::crf {

struct Workspace {
  // Fused tokenize+compile output (CrfModel::CompileInto).
  CompiledSequence seq;
  text::TokenScratch token_scratch;

  // Log-potentials (CrfModel::ComputeScores).
  CrfModel::Scores scores;

  // Forward-backward state (inference.h workspace overloads). The scaled
  // recursion keeps normalized exp-domain rows in `alpha` and two L-wide
  // backward rows in `beta`; LogPartition and the log-domain fallback keep
  // T*L log-sums in both.
  std::vector<double> alpha;      // T*L forward rows
  std::vector<double> beta;       // backward rows
  std::vector<double> lse;        // L-wide scratch
  std::vector<double> exp_unary;  // T*L exp(unary - row max)
  std::vector<double> scales;     // T forward row sums
  Posteriors post;

  // PathLogProb state: the two L-wide rows of its exp-domain recursion.
  std::vector<double> path_eps;
  // std::exp of dense pairwise rows when Scores has no exp_pair_rows:
  // T*L*L for ForwardBackward, one L*L block for PathLogProb.
  std::vector<double> exp_pair;

  // Viterbi state (viterbi.h workspace overload).
  std::vector<double> viterbi_score;  // T*L best-path scores
  std::vector<int> viterbi_back;      // T*L backpointers
  ViterbiResult viterbi;
};

}  // namespace whoiscrf::crf
