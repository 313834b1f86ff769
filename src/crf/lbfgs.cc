#include "crf/lbfgs.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "util/logging.h"

namespace whoiscrf::crf {

namespace {

// Runs body(k) for every k in [0, n) and returns the sum of what it
// returns. Four interleaved accumulators let the adds pipeline; their
// order is fixed, so the sum is the same on every run.
template <typename Body>
double FusedSum(size_t n, Body body) {
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    a0 += body(k);
    a1 += body(k + 1);
    a2 += body(k + 2);
    a3 += body(k + 3);
  }
  for (; k < n; ++k) a0 += body(k);
  return (a0 + a1) + (a2 + a3);
}

double InfNorm(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) {
    const double a = std::fabs(x);
    if (a > m) m = a;
  }
  return m;
}

}  // namespace

LbfgsOptimizer::LbfgsOptimizer(Options options) : options_(options) {
  if (options_.history < 1) {
    throw std::invalid_argument("LbfgsOptimizer: history must be >= 1");
  }
}

LbfgsOptimizer::Result LbfgsOptimizer::Minimize(const Objective& f,
                                                std::vector<double>& w) const {
  const size_t n = w.size();
  Result result;

  std::vector<double> grad(n);
  double value = f(w, grad);
  ++result.evaluations;
  double grad_inf = InfNorm(grad);

  // Curvature pairs s = x_{k+1} - x_k, y = g_{k+1} - g_k in a ring of m + 1
  // slots: the window of at most m pairs, oldest at `head`, and the slot
  // the next pair is built in, so a pair rejected for its s.y costs the
  // window nothing. A slot's vectors are allocated on its first use.
  const size_t m = static_cast<size_t>(options_.history);
  const size_t slots = m + 1;
  std::vector<std::vector<double>> s_slot(slots);
  std::vector<std::vector<double>> y_slot(slots);
  std::vector<double> rho(slots);    // 1 / (y . s) per slot
  std::vector<double> alpha(slots);  // per window position
  size_t head = 0;
  size_t count = 0;
  double gamma = 1.0;  // s.y / y.y of the newest pair: H_0's scale

  std::vector<double> direction(n);
  std::vector<double> w_next(n);
  std::vector<double> grad_next(n);

  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    if (options_.should_stop && options_.should_stop()) {
      result.stopped = true;
      break;
    }
    if (grad_inf <= options_.grad_tolerance) {
      result.converged = true;
      break;
    }
    const auto iter_start = std::chrono::steady_clock::now();
    double* d = direction.data();
    const double* g = grad.data();
    const auto pair_s = [&](size_t i) {
      return s_slot[(head + i) % slots].data();
    };
    const auto pair_y = [&](size_t i) {
      return y_slot[(head + i) % slots].data();
    };
    const auto pair_rho = [&](size_t i) { return rho[(head + i) % slots]; };

    // Two-loop recursion, direction = -H_k g, with every axpy computing
    // the next loop step's dot product in the same pass. H_0's scale folds
    // into the last backward pass, the negation and g . d into the last
    // forward one.
    double dir_deriv = 0.0;
    double step = 1.0;
    if (count == 0) {
      const double gg = FusedSum(n, [&](size_t k) {
        d[k] = -g[k];
        return g[k] * g[k];
      });
      dir_deriv = -gg;
      // No curvature yet, so nothing scales -g: a unit step would move
      // the weights by ||g||, far past the minimum on a steep start.
      step = std::min(1.0, 1.0 / std::sqrt(gg));
    } else {
      const double* s_new = pair_s(count - 1);
      double dot = FusedSum(n, [&](size_t k) {
        d[k] = g[k];
        return s_new[k] * d[k];
      });
      for (size_t i = count; i-- > 0;) {
        const double a = pair_rho(i) * dot;
        alpha[i] = a;
        const double* y = pair_y(i);
        if (i > 0) {
          const double* s_prev = pair_s(i - 1);
          dot = FusedSum(n, [&](size_t k) {
            d[k] -= a * y[k];
            return s_prev[k] * d[k];
          });
        } else {
          const double scale = gamma;
          dot = FusedSum(n, [&](size_t k) {
            d[k] = scale * (d[k] - a * y[k]);
            return y[k] * d[k];
          });
        }
      }
      for (size_t i = 0; i < count; ++i) {
        const double c = alpha[i] - pair_rho(i) * dot;
        const double* s = pair_s(i);
        if (i + 1 < count) {
          const double* y_next = pair_y(i + 1);
          dot = FusedSum(n, [&](size_t k) {
            d[k] += c * s[k];
            return y_next[k] * d[k];
          });
        } else {
          dir_deriv = FusedSum(n, [&](size_t k) {
            d[k] = -(d[k] + c * s[k]);
            return g[k] * d[k];
          });
        }
      }
    }
    if (dir_deriv >= 0.0) {
      // Not a descent direction (can happen right after skipped updates);
      // fall back to steepest descent.
      dir_deriv = -FusedSum(n, [&](size_t k) {
        d[k] = -g[k];
        return g[k] * g[k];
      });
      if (dir_deriv == 0.0) {
        result.converged = true;
        break;
      }
    }

    // Backtracking Armijo line search.
    constexpr double kC1 = 1e-4;
    double value_next = value;
    bool accepted = false;
    for (int ls = 0; ls < options_.max_line_search_steps; ++ls) {
      for (size_t k = 0; k < n; ++k) w_next[k] = w[k] + step * d[k];
      value_next = f(w_next, grad_next);
      ++result.evaluations;
      if (std::isfinite(value_next) &&
          value_next <= value + kC1 * step * dir_deriv) {
        accepted = true;
        break;
      }
      step *= 0.5;
    }
    if (!accepted) {
      LOG_DEBUG("lbfgs: line search failed at iter %d (f=%.6f)", iter, value);
      break;
    }

    // Build the new pair in the spare slot, with s.y, y.y and the new
    // ||g||_inf, in one pass.
    const size_t spare = (head + count) % slots;
    s_slot[spare].resize(n);
    y_slot[spare].resize(n);
    double* s = s_slot[spare].data();
    double* y = y_slot[spare].data();
    const double* x = w.data();
    const double* x_next = w_next.data();
    const double* g_next = grad_next.data();
    double yy = 0.0;
    double inf = 0.0;
    const double sy = FusedSum(n, [&](size_t k) {
      s[k] = x_next[k] - x[k];
      y[k] = g_next[k] - g[k];
      yy += y[k] * y[k];
      const double a = std::fabs(g_next[k]);
      if (a > inf) inf = a;
      return s[k] * y[k];
    });
    // Keep the pair only if it maintains positive definiteness.
    if (sy > 1e-10) {
      rho[spare] = 1.0 / sy;
      gamma = yy > 0.0 ? sy / yy : 1.0;
      if (count < m) {
        ++count;
      } else {
        head = (head + 1) % slots;
      }
    }

    const double improvement = value - value_next;
    w.swap(w_next);
    grad.swap(grad_next);
    value = value_next;
    grad_inf = inf;
    result.iterations = iter + 1;

    if (options_.verbose) {
      LOG_INFO("lbfgs iter %3d  f=%.6f  |g|=%.3g  step=%.3g", iter + 1, value,
               grad_inf, step);
    }
    if (options_.on_iteration) {
      IterationInfo info;
      info.iteration = iter + 1;
      info.value = value;
      info.grad_inf_norm = grad_inf;
      info.step = step;
      info.evaluations = result.evaluations;
      info.seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - iter_start)
                         .count();
      options_.on_iteration(info);
    }
    if (improvement >= 0.0 &&
        improvement <= options_.value_rel_tolerance *
                           (std::fabs(value) + 1e-12)) {
      result.converged = true;
      break;
    }
  }

  result.value = value;
  return result;
}

}  // namespace whoiscrf::crf
