// Limited-memory BFGS (paper §3.1/§3.3: parameters are fit with L-BFGS,
// following Nocedal & Wright). Generic unconstrained minimizer over a
// differentiable objective; the two-loop recursion approximates the inverse
// Hessian from the last `history` curvature pairs, and a backtracking
// Armijo line search guarantees sufficient decrease. Curvature pairs with
// non-positive s.y are skipped so the inverse-Hessian approximation stays
// positive definite (the objective here is convex, so this is rare and
// benign). Until the first pair exists the line search starts at
// min(1, 1/||g||_2), not at a unit step that moves the weights by ||g||.
//
// An iteration is bound by its passes over the n weights, so they are
// fused: each two-loop axpy computes the next dot product in the same
// pass, the H_0 scaling, the negation and the directional derivative ride
// the neighbouring passes, and one pass builds s, y, s.y, y.y and ||g||_inf.
// The pairs live in a ring of history + 1 slots reused in place, so an
// iteration allocates nothing once the ring has filled. Dot products use
// four accumulators in a fixed order: results do not vary run to run.
#pragma once

#include <functional>
#include <vector>

namespace whoiscrf::crf {

class LbfgsOptimizer {
 public:
  // Telemetry snapshot of one accepted iteration, delivered through
  // Options::on_iteration (the hook the CRF trainer uses to export
  // per-iteration NLL / gradient-norm / wall-time metrics).
  struct IterationInfo {
    int iteration = 0;           // 1-based
    double value = 0.0;          // objective after the accepted step
    double grad_inf_norm = 0.0;  // ||g||_inf after the step
    double step = 0.0;           // accepted line-search step length
    int evaluations = 0;         // objective evals so far (incl. line search)
    double seconds = 0.0;        // wall time of this iteration
  };

  struct Options {
    int history = 6;                // m: stored curvature pairs
    int max_iterations = 200;
    double grad_tolerance = 1e-4;   // stop when ||g||_inf <= this
    double value_rel_tolerance = 1e-8;  // stop on tiny relative improvement
    int max_line_search_steps = 40;
    bool verbose = false;
    // Called after every accepted iteration; pure observer (must not touch
    // the weights).
    std::function<void(const IterationInfo&)> on_iteration;
    // Cooperative cancellation, polled before every iteration: when it
    // returns true the optimizer stops immediately and returns the best
    // weights so far with Result::stopped set. The lifecycle controller's
    // background retrains cancel through this hook (per-iteration latency,
    // not per-training-run).
    std::function<bool()> should_stop;
  };

  struct Result {
    double value = 0.0;
    int iterations = 0;
    bool converged = false;
    // True when Options::should_stop ended the run before convergence or
    // the iteration cap.
    bool stopped = false;
    int evaluations = 0;
  };

  // Objective: given w, writes gradient (same size) and returns f(w).
  using Objective =
      std::function<double(const std::vector<double>&, std::vector<double>&)>;

  LbfgsOptimizer() : LbfgsOptimizer(Options()) {}
  explicit LbfgsOptimizer(Options options);

  // Minimizes f starting from (and updating) `w`.
  Result Minimize(const Objective& f, std::vector<double>& w) const;

 private:
  Options options_;
};

}  // namespace whoiscrf::crf
