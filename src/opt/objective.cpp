#include "opt/objective.hpp"

#include <algorithm>
#include <stdexcept>

#include "telemetry/telemetry.hpp"
#include "util/thread_pool.hpp"

namespace surfos::opt {

double Objective::value_and_gradient(std::span<const double> x,
                                     std::span<double> gradient) const {
  if (gradient.size() != x.size()) {
    throw std::invalid_argument("Objective: gradient size mismatch");
  }
  const double base = value(x);
  SURFOS_TRACE_SPAN("opt.objective.fd_gradient");
  const double h = fd_step();
  // Each chunk probes its coordinates off a private copy of x (restored
  // after every coordinate) and writes only gradient[i].
  const auto probe = [&](std::size_t b, std::size_t e) {
    std::vector<double> point(x.begin(), x.end());
    for (std::size_t i = b; i < e; ++i) {
      point[i] = x[i] + h;
      const double plus = value(point);
      point[i] = x[i] - h;
      const double minus = value(point);
      point[i] = x[i];
      gradient[i] = (plus - minus) / (2.0 * h);
    }
  };
  if (thread_safe() && x.size() > 1) {
    util::run_chunked(0, x.size(), probe);
  } else {
    probe(0, x.size());
  }
  return base;
}

void Objective::value_batch(std::span<const std::vector<double>> xs,
                            std::span<double> out) const {
  if (out.size() != xs.size()) {
    throw std::invalid_argument("Objective: batch output size mismatch");
  }
  SURFOS_TRACE_SPAN("opt.objective.value_batch");
  if (thread_safe()) {
    util::parallel_for(0, xs.size(),
                       [&](std::size_t k) { out[k] = value(xs[k]); });
  } else {
    for (std::size_t k = 0; k < xs.size(); ++k) out[k] = value(xs[k]);
  }
}

void WeightedSumObjective::add_term(const Objective* objective, double weight) {
  if (objective == nullptr) {
    throw std::invalid_argument("WeightedSumObjective: null term");
  }
  if (!terms_.empty() && objective->dimension() != dimension()) {
    throw std::invalid_argument("WeightedSumObjective: dimension mismatch");
  }
  terms_.emplace_back(objective, weight);
}

std::size_t WeightedSumObjective::dimension() const {
  return terms_.empty() ? 0 : terms_.front().first->dimension();
}

double WeightedSumObjective::value(std::span<const double> x) const {
  double sum = 0.0;
  for (const auto& [objective, weight] : terms_) {
    sum += weight * objective->value(x);
  }
  return sum;
}

double WeightedSumObjective::value_and_gradient(
    std::span<const double> x, std::span<double> gradient) const {
  if (gradient.size() != x.size()) {
    throw std::invalid_argument("WeightedSumObjective: gradient size");
  }
  std::vector<double> partial(x.size());
  std::fill(gradient.begin(), gradient.end(), 0.0);
  double sum = 0.0;
  for (const auto& [objective, weight] : terms_) {
    sum += weight * objective->value_and_gradient(x, partial);
    for (std::size_t i = 0; i < x.size(); ++i) {
      gradient[i] += weight * partial[i];
    }
  }
  return sum;
}

bool WeightedSumObjective::thread_safe() const {
  return std::all_of(terms_.begin(), terms_.end(),
                     [](const auto& t) { return t.first->thread_safe(); });
}

}  // namespace surfos::opt
