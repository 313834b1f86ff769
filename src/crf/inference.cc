#include "crf/inference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <utility>

#include "crf/workspace.h"
#include "obs/metrics.h"

namespace whoiscrf::crf {

double LogSumExp(const double* v, int n) {
  double max = -std::numeric_limits<double>::infinity();
  for (int i = 0; i < n; ++i) {
    if (v[i] > max) max = v[i];
  }
  if (!std::isfinite(max)) return max;  // all -inf
  // A term equal to max contributes exp(0), which IEC 60559 defines as
  // exactly 1: adding 1.0 instead skips the call without changing a bit.
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += v[i] == max ? 1.0 : std::exp(v[i] - max);
  return max + std::log(sum);
}

namespace {

// The running sum of PathLogProb is kept inside [2^-512, 2^512], far from
// both ends of double's range, so one step's factors cannot leave it.
// ForwardBackward's product of scale mantissas is renormalized below 2^-512.
constexpr double kRescaleHigh = 0x1p512;
constexpr double kRescaleLow = 0x1p-512;

// Forward recursion: alpha[t*L+j] = log sum over paths ending in j at t.
// `scratch` is an L-wide log-sum-exp buffer supplied by the caller.
void Forward(const CrfModel::Scores& s, std::vector<double>& alpha,
             std::vector<double>& scratch) {
  const int T = s.T;
  const int L = s.L;
  // resize, not assign: every entry is written below before it is read.
  alpha.resize(static_cast<size_t>(T) * L);
  for (int j = 0; j < L; ++j) alpha[j] = s.unary[j];
  scratch.resize(static_cast<size_t>(L));
  for (int t = 1; t < T; ++t) {
    const double* alpha_prev = &alpha[static_cast<size_t>(t - 1) * L];
    const double* pair_t = s.PairRow(t);
    double* alpha_t = &alpha[static_cast<size_t>(t) * L];
    for (int j = 0; j < L; ++j) {
      for (int i = 0; i < L; ++i) {
        scratch[static_cast<size_t>(i)] = alpha_prev[i] + pair_t[i * L + j];
      }
      alpha_t[j] = s.unary[static_cast<size_t>(t) * L + j] +
                   LogSumExp(scratch.data(), L);
    }
  }
}

// Backward recursion: beta[t*L+i] = log sum over paths continuing from i.
void Backward(const CrfModel::Scores& s, std::vector<double>& beta,
              std::vector<double>& scratch) {
  const int T = s.T;
  const int L = s.L;
  beta.assign(static_cast<size_t>(T) * L, 0.0);
  scratch.assign(static_cast<size_t>(L), 0.0);
  for (int t = T - 2; t >= 0; --t) {
    const double* beta_next = &beta[static_cast<size_t>(t + 1) * L];
    const double* pair_next = s.PairRow(t + 1);
    double* beta_t = &beta[static_cast<size_t>(t) * L];
    for (int i = 0; i < L; ++i) {
      for (int j = 0; j < L; ++j) {
        scratch[static_cast<size_t>(j)] =
            pair_next[i * L + j] +
            s.unary[static_cast<size_t>(t + 1) * L + j] + beta_next[j];
      }
      beta_t[i] = LogSumExp(scratch.data(), L);
    }
  }
}

}  // namespace

double LogPartition(const CrfModel::Scores& scores) {
  Workspace ws;
  return LogPartition(scores, ws);
}

double LogPartition(const CrfModel::Scores& scores, Workspace& ws) {
  if (scores.T <= 0) throw std::invalid_argument("LogPartition: empty");
  Forward(scores, ws.alpha, ws.lse);
  return LogSumExp(&ws.alpha[static_cast<size_t>(scores.T - 1) * scores.L],
                   scores.L);
}

Posteriors ForwardBackward(const CrfModel::Scores& s) {
  Workspace ws;
  ForwardBackward(s, ws, /*with_edges=*/true);
  return std::move(ws.post);
}

namespace {

// Sizes `p` for T positions; edge row t=0 is zero, rows t >= 1 are written
// by the caller.
Posteriors& ResetPosteriors(Posteriors& p, int T, int L, bool with_edges) {
  const size_t LL = static_cast<size_t>(L) * L;
  p.T = T;
  p.L = L;
  p.node.resize(static_cast<size_t>(T) * L);
  if (with_edges) {
    p.edge.resize(static_cast<size_t>(T) * LL);
    std::fill_n(p.edge.begin(), LL, 0.0);
  } else {
    p.edge.clear();
  }
  return p;
}

// The scaled exp-domain recursion (Rabiner scaling). Position t's unary
// factors are e_t[j] = exp(u_t[j] - m_t) with m_t = max_j u_t[j], and its
// pairwise block is E_t = exp(PairRow(t)). Each forward row is normalized to
// sum to 1 by its scale c_t, so
//   alpha_t = e_t * (alpha_{t-1} E_t) / c_t,   log Z = sum_t (m_t + log c_t),
// and the backward rows reuse the same scales:
//   beta_{t-1} = E_t (e_t * beta_t) / c_t,     beta_{T-1} = 1.
// Then Pr(y_t = j) = alpha_t[j] beta_t[j] and the edge marginals are
// alpha_{t-1}[i] E_t[i][j] e_t[j] beta_t[j] / c_t. Returns false, leaving
// the posteriors partly written, if a scale is zero or not finite, a
// backward row overflows, or log Z is not finite; the caller then reruns
// the sequence in the log domain.
bool ScaledForwardBackward(const CrfModel::Scores& s, Workspace& ws,
                           bool with_edges) {
  const int T = s.T;
  const int L = s.L;
  const size_t LL = static_cast<size_t>(L) * L;
  const bool own_exp = s.exp_pair_rows.empty();
  if (own_exp) {
    ws.exp_pair.resize(static_cast<size_t>(T) * LL);
    for (int t = 1; t < T; ++t) {
      const double* row = s.PairRow(t);
      double* out = &ws.exp_pair[static_cast<size_t>(t) * LL];
      for (size_t ij = 0; ij < LL; ++ij) out[ij] = std::exp(row[ij]);
    }
  }
  const auto exp_row = [&](int t) {
    return own_exp ? &ws.exp_pair[static_cast<size_t>(t) * LL]
                   : s.exp_pair_rows[static_cast<size_t>(t)];
  };

  ws.exp_unary.resize(static_cast<size_t>(T) * L);
  ws.alpha.resize(static_cast<size_t>(T) * L);
  ws.scales.resize(static_cast<size_t>(T));
  // log Z = shift + log(prod) + exponent * ln 2, where prod keeps the
  // product of the scales' mantissas inside [2^-512, 1].
  double shift = 0.0;
  double prod = 1.0;
  int exponent = 0;
  for (int t = 0; t < T; ++t) {
    const double* u = &s.unary[static_cast<size_t>(t) * L];
    double m = u[0];
    for (int j = 1; j < L; ++j) m = u[j] > m ? u[j] : m;
    double* e = &ws.exp_unary[static_cast<size_t>(t) * L];
    // exp(0) is exactly 1, as in LogSumExp.
    for (int j = 0; j < L; ++j) e[j] = u[j] == m ? 1.0 : std::exp(u[j] - m);
    double* a = &ws.alpha[static_cast<size_t>(t) * L];
    if (t == 0) {
      for (int j = 0; j < L; ++j) a[j] = e[j];
    } else {
      const double* prev = a - L;
      const double* E = exp_row(t);
      for (int j = 0; j < L; ++j) a[j] = 0.0;
      for (int i = 0; i < L; ++i) {
        const double p = prev[i];
        const double* Ei = &E[static_cast<size_t>(i) * L];
        for (int j = 0; j < L; ++j) a[j] += p * Ei[j];
      }
      for (int j = 0; j < L; ++j) a[j] *= e[j];
    }
    double c = 0.0;
    for (int j = 0; j < L; ++j) c += a[j];
    // A zero, overflowed or NaN scale would leave log Z non-finite; stop
    // at the first one.
    if (!(c > 0.0 && c <= std::numeric_limits<double>::max())) return false;
    for (int j = 0; j < L; ++j) a[j] /= c;
    ws.scales[static_cast<size_t>(t)] = c;
    shift += m;
    int e2;
    prod *= std::frexp(c, &e2);
    exponent += e2;
    if (prod < kRescaleLow) {
      prod = std::frexp(prod, &e2);
      exponent += e2;
    }
  }
  const double log_z = shift + (std::log(prod) + exponent * std::numbers::ln2);
  if (!std::isfinite(log_z)) return false;

  Posteriors& p = ResetPosteriors(ws.post, T, L, with_edges);
  p.log_z = log_z;
  // Two L-wide backward rows, and w = e_t * beta_t / c_t in `lse`.
  ws.beta.resize(2 * static_cast<size_t>(L));
  ws.lse.resize(static_cast<size_t>(L));
  double* beta = ws.beta.data();
  double* beta_prev = beta + L;
  double* w = ws.lse.data();
  for (int j = 0; j < L; ++j) beta[j] = 1.0;
  for (int t = T - 1;; --t) {
    const double* a = &ws.alpha[static_cast<size_t>(t) * L];
    double* node = &p.node[static_cast<size_t>(t) * L];
    for (int j = 0; j < L; ++j) node[j] = a[j] * beta[j];
    if (t == 0) break;
    const double* e = &ws.exp_unary[static_cast<size_t>(t) * L];
    const double c = ws.scales[static_cast<size_t>(t)];
    for (int j = 0; j < L; ++j) w[j] = e[j] * beta[j] / c;
    const double* E = exp_row(t);
    const double* a_prev = a - L;
    double* edge = with_edges ? &p.edge[static_cast<size_t>(t) * LL] : nullptr;
    double sum = 0.0;
    for (int i = 0; i < L; ++i) {
      const double* Ei = &E[static_cast<size_t>(i) * L];
      double acc = 0.0;
      if (edge != nullptr) {
        double* edge_i = &edge[static_cast<size_t>(i) * L];
        for (int j = 0; j < L; ++j) {
          const double x = Ei[j] * w[j];
          acc += x;
          edge_i[j] = a_prev[i] * x;
        }
      } else {
        for (int j = 0; j < L; ++j) acc += Ei[j] * w[j];
      }
      beta_prev[i] = acc;
      sum += acc;
    }
    if (!(sum <= std::numeric_limits<double>::max())) return false;
    std::swap(beta, beta_prev);
  }
  return true;
}

}  // namespace

const Posteriors& ForwardBackward(const CrfModel::Scores& s, Workspace& ws,
                                  bool with_edges) {
  if (s.T <= 0) throw std::invalid_argument("ForwardBackward: empty");
  if (!ScaledForwardBackward(s, ws, with_edges)) {
    static obs::Counter* const fallbacks =
        obs::Registry::Global().GetCounter(
            "whoiscrf_crf_forward_backward_fallbacks_total",
            "Sequences whose scaled forward-backward left double's range and "
            "were rerun in the log domain");
    fallbacks->Inc();
    LogDomainForwardBackward(s, ws, with_edges);
  }
  return ws.post;
}

const Posteriors& LogDomainForwardBackward(const CrfModel::Scores& s,
                                           Workspace& ws, bool with_edges) {
  if (s.T <= 0) throw std::invalid_argument("ForwardBackward: empty");
  const int T = s.T;
  const int L = s.L;

  Forward(s, ws.alpha, ws.lse);
  Backward(s, ws.beta, ws.lse);
  const std::vector<double>& alpha = ws.alpha;
  const std::vector<double>& beta = ws.beta;

  Posteriors& p = ResetPosteriors(ws.post, T, L, with_edges);
  p.log_z = LogSumExp(&alpha[static_cast<size_t>(T - 1) * L], L);

  for (int t = 0; t < T; ++t) {
    for (int j = 0; j < L; ++j) {
      const size_t idx = static_cast<size_t>(t) * L + j;
      p.node[idx] = std::exp(alpha[idx] + beta[idx] - p.log_z);
    }
  }
  if (!with_edges) return p;
  for (int t = 1; t < T; ++t) {
    const double* alpha_prev = &alpha[static_cast<size_t>(t - 1) * L];
    const double* beta_t = &beta[static_cast<size_t>(t) * L];
    const double* pair_t = s.PairRow(t);
    double* edge_t = &p.edge[static_cast<size_t>(t) * L * L];
    for (int i = 0; i < L; ++i) {
      for (int j = 0; j < L; ++j) {
        edge_t[i * L + j] = std::exp(
            alpha_prev[i] + pair_t[i * L + j] +
            s.unary[static_cast<size_t>(t) * L + j] + beta_t[j] - p.log_z);
      }
    }
  }
  return p;
}

namespace {

// Unnormalized log-score of one label path (the eq. 13 sum).
double PathScore(const CrfModel::Scores& s, std::span<const int> labels) {
  double score = 0.0;
  for (int t = 0; t < s.T; ++t) {
    score += s.unary[static_cast<size_t>(t) * s.L + labels[static_cast<size_t>(t)]];
    if (t >= 1) {
      score += s.PairRow(t)[labels[static_cast<size_t>(t - 1)] * s.L +
                            labels[static_cast<size_t>(t)]];
    }
  }
  return score;
}

}  // namespace

double PathLogProb(const CrfModel::Scores& s, std::span<const int> y,
                   Workspace& ws) {
  if (s.T <= 0) throw std::invalid_argument("PathLogProb: empty");
  if (y.size() != static_cast<size_t>(s.T)) {
    throw std::invalid_argument("PathLogProb: label length mismatch");
  }
  const int T = s.T;
  const int L = s.L;
  const size_t LL = static_cast<size_t>(L) * L;
  // cur[j]: sum over prefixes y'_0..t that end in label j and differ from
  // y_0..t, of exp(s(y'_0..t) - s(y_0..t)), times 2^-scale. The "still on
  // y" state is y's own prefix, whose relative weight is exactly 1.
  ws.path_eps.resize(2 * static_cast<size_t>(L));
  double* cur = ws.path_eps.data();
  double* next = cur + L;
  const bool own_exp = s.exp_pair_rows.empty();
  if (own_exp) ws.exp_pair.resize(LL);

  const double u0 = s.unary[static_cast<size_t>(y[0])];
  for (int j = 0; j < L; ++j) {
    cur[j] = j == y[0] ? 0.0 : std::exp(s.unary[static_cast<size_t>(j)] - u0);
  }
  int scale = 0;          // eps = sum(cur) * 2^scale
  double on_path = 1.0;   // y's prefix weight in the scaled frame, 2^-scale
  for (int t = 1; t < T; ++t) {
    const double* E;
    if (own_exp) {
      const double* row = s.PairRow(t);
      for (size_t ij = 0; ij < LL; ++ij) ws.exp_pair[ij] = std::exp(row[ij]);
      E = ws.exp_pair.data();
    } else {
      E = s.exp_pair_rows[static_cast<size_t>(t)];
    }
    const int yp = y[static_cast<size_t>(t - 1)];
    const int yt = y[static_cast<size_t>(t)];
    const double* u = &s.unary[static_cast<size_t>(t) * L];
    const double* leave = &E[static_cast<size_t>(yp) * L];  // y_{t-1} -> j
    // Extending y's prefix multiplies its weight by leave[yt] * exp(u[yt]);
    // dividing every step by that keeps the frame relative to y.
    const double inv = 1.0 / leave[yt];
    double sum = 0.0;
    for (int j = 0; j < L; ++j) {
      double acc = 0.0;
      for (int i = 0; i < L; ++i) acc += cur[i] * E[i * L + j];
      if (j != yt) acc += on_path * leave[j];  // the step that leaves y
      next[j] = acc * (j == yt ? inv : std::exp(u[j] - u[yt]) * inv);
      sum += next[j];
    }
    std::swap(cur, next);
    if (sum > kRescaleHigh || (sum < kRescaleLow && sum > 0.0)) {
      const int e = std::ilogb(sum);
      for (int j = 0; j < L; ++j) cur[j] = std::ldexp(cur[j], -e);
      scale += e;
      on_path = std::ldexp(1.0, -scale);
    }
  }

  double eps = 0.0;
  for (int j = 0; j < L; ++j) eps += cur[j];
  double log1p_eps;
  if (scale == 0) {
    log1p_eps = std::log1p(eps);
  } else {
    const double unscaled = std::ldexp(eps, scale);
    // Past double's range eps >> 1, so log1p(eps) is log(eps) to the bit.
    log1p_eps = std::isfinite(unscaled)
                    ? std::log1p(unscaled)
                    : std::log(eps) + scale * std::numbers::ln2;
  }
  // 0.0 - x rather than -x: eps == 0 (every alternative underflowed)
  // yields +0, as `score - log Z` would.
  const double log_prob = 0.0 - log1p_eps;
  if (std::isfinite(log_prob)) return log_prob;
  return PathScore(s, y) - LogPartition(s, ws);
}

double SequenceLogProb(const CrfModel::Scores& s,
                       const std::vector<int>& labels) {
  Workspace ws;
  return PathLogProb(s, labels, ws);
}

double LogPartitionBruteForce(const CrfModel::Scores& s) {
  if (s.T <= 0) throw std::invalid_argument("BruteForce: empty");
  const int T = s.T;
  const int L = s.L;
  double total = -std::numeric_limits<double>::infinity();
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
    // total = logaddexp(total, score)
    if (score > total) {
      total = std::isfinite(total)
                  ? score + std::log1p(std::exp(total - score))
                  : score;
    } else {
      total = total + std::log1p(std::exp(score - total));
    }
    // Odometer increment over label assignments.
    int pos = 0;
    while (pos < T) {
      if (++labels[static_cast<size_t>(pos)] < L) break;
      labels[static_cast<size_t>(pos)] = 0;
      ++pos;
    }
    if (pos == T) break;
  }
  return total;
}

}  // namespace whoiscrf::crf
