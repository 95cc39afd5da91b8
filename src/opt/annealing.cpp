#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "opt/optimizer.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace surfos::opt {

// Simulated annealing over per-coordinate phase perturbations, with
// speculative candidate pools. While moves are being accepted the chain is
// strictly sequential (each candidate perturbs the newest state), so the
// pool size is 1. Once a long rejection streak shows the chain has settled
// into reject-mostly behaviour, candidates are speculated in fixed-size
// pools from the current state and evaluated together through
// Objective::value_batch (parallel for thread-safe objectives); accept
// decisions replay in candidate order and the rest of a pool is discarded
// after the first acceptance, since later candidates were speculated
// against a stale base. Pool sizes and every RNG draw are independent of
// the thread count, so trajectories are bit-identical under any
// SURFOS_THREADS setting.
OptimizeResult SimulatedAnnealing::minimize(const Objective& objective,
                                            std::vector<double> x0) const {
  SURFOS_TRACE_SPAN("opt.minimize");
  if (x0.size() != objective.dimension()) {
    throw std::invalid_argument("SimulatedAnnealing: x0 dimension mismatch");
  }
  util::Rng rng(options_.seed);
  OptimizeResult result;
  std::vector<double> x = std::move(x0);
  double value = objective.value(x);
  ++result.evaluations;
  result.x = x;
  result.value = value;

  // Speculate only after this many consecutive rejections; at that point the
  // expected waste from discarding post-acceptance pool tails is small.
  constexpr std::size_t kPool = 8;
  constexpr std::size_t kStreakToPool = 16;

  double temperature = options_.initial_temperature;
  std::size_t rejection_streak = 0;
  std::vector<std::size_t> coords;
  std::vector<double> proposals;
  std::vector<double> temps;
  std::vector<std::vector<double>> candidates;
  std::vector<double> values;
  while (result.evaluations < options_.max_evaluations) {
    ++result.iterations;
    const std::size_t batch =
        rejection_streak >= kStreakToPool
            ? std::min<std::size_t>(
                  kPool, options_.max_evaluations - result.evaluations)
            : 1;
    coords.resize(batch);
    proposals.resize(batch);
    temps.resize(batch);
    candidates.resize(batch);
    values.assign(batch, 0.0);
    // Proposal draws happen here, sequentially, before any (possibly
    // parallel) evaluation; temperature cools once per evaluation as in the
    // sequential algorithm. Acceptance uniforms are drawn lazily below, on
    // the calling thread, preserving the sequential algorithm's RNG stream
    // exactly whenever the pool size is 1. Every candidate is a
    // single-coordinate move off x.
    for (std::size_t k = 0; k < batch; ++k) {
      coords[k] = static_cast<std::size_t>(rng.below(x.size()));
      proposals[k] = x[coords[k]] + options_.sigma * temperature * rng.normal();
      temps[k] = temperature;
      temperature *= options_.cooling;
      candidates[k].assign(x.begin(), x.end());
      candidates[k][coords[k]] = proposals[k];
    }
    objective.value_batch(candidates, values);
    result.evaluations += batch;
    for (std::size_t k = 0; k < batch; ++k) {
      const bool accept =
          values[k] < value ||
          rng.uniform() <
              std::exp(-(values[k] - value) / std::fmax(1e-12, temps[k]));
      if (accept) {
        x[coords[k]] = proposals[k];
        value = values[k];
        if (value < result.value) {
          result.value = value;
          result.x = x;
        }
        rejection_streak = 0;
        break;  // later pool members were speculated against a stale base
      }
      ++rejection_streak;
    }
  }
  result.converged = true;
  return result;
}

}  // namespace surfos::opt
