#include <cmath>
#include <stdexcept>

#include "opt/optimizer.hpp"
#include "telemetry/telemetry.hpp"

namespace surfos::opt {

OptimizeResult GradientDescent::minimize(const Objective& objective,
                                         std::vector<double> x0) const {
  SURFOS_TRACE_SPAN("opt.minimize");
  if (x0.size() != objective.dimension()) {
    throw std::invalid_argument("GradientDescent: x0 dimension mismatch");
  }
  OptimizeResult result;
  result.x = std::move(x0);
  std::vector<double> gradient(result.x.size());
  std::vector<double> candidate(result.x.size());

  double value = objective.value_and_gradient(result.x, gradient);
  ++result.evaluations;
  double step = options_.initial_step;

  for (std::size_t iter = 0; iter < options_.max_iterations; ++iter) {
    ++result.iterations;
    double grad_norm2 = 0.0;
    for (double g : gradient) grad_norm2 += g * g;
    if (grad_norm2 < 1e-24) {
      result.converged = true;
      break;
    }

    // Backtracking line search along -gradient.
    double improvement = -1.0;
    double trial_step = step;
    for (std::size_t bt = 0; bt < options_.max_backtracks; ++bt) {
      for (std::size_t i = 0; i < result.x.size(); ++i) {
        candidate[i] = result.x[i] - trial_step * gradient[i];
      }
      const double trial_value = objective.value(candidate);
      ++result.evaluations;
      if (trial_value < value) {
        improvement = value - trial_value;
        result.x = candidate;
        value = trial_value;
        // Re-grow the step after an accepted probe so the search can
        // accelerate once past a plateau.
        step = trial_step * 1.5;
        break;
      }
      trial_step *= options_.backtrack_factor;
    }
    if (improvement < 0.0 || improvement < options_.tolerance) {
      // No descent direction at line-search resolution, or progress stalled.
      result.converged = true;
      break;
    }
    // Only the gradient is new: the returned value repeats the accepted
    // line-search probe's, which stays authoritative.
    objective.value_and_gradient(result.x, gradient);
    ++result.evaluations;
  }
  result.value = value;
  return result;
}

}  // namespace surfos::opt
