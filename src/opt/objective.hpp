// Objective abstraction for surface-configuration optimization.
//
// The orchestrator phrases every service goal as a scalar loss over the
// concatenated control phases of all scheduled panels (paper 3.2: "an
// optimizer searches the surface configurations ... with surface
// configurations as variables"). Losses are minimized.
//
// Parallel evaluation: an objective that declares `thread_safe()` may have
// `value()` called concurrently from the process-wide thread pool — the
// default finite-difference gradient probes its 2n points in parallel, and
// `value_batch()` (used by population/pool optimizers: CMA-ES, random
// search, annealing) fans candidate evaluations out. Results are written to
// per-candidate slots, so batch outputs are bit-identical to a serial loop
// regardless of thread count.
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace surfos::opt {

class Objective {
 public:
  virtual ~Objective() = default;

  virtual std::size_t dimension() const = 0;

  /// Loss at x.
  virtual double value(std::span<const double> x) const = 0;

  /// Loss and gradient. Default: the base value once, then 2n
  /// central-finite-difference probes (in parallel when thread_safe();
  /// analytic overrides in the orchestrator are ~2n times faster either way).
  virtual double value_and_gradient(std::span<const double> x,
                                    std::span<double> gradient) const;

  /// Evaluates a batch of points: out[k] = value(xs[k]). Default fans the
  /// loop out on the thread pool when thread_safe(), else runs serially;
  /// either way out[k] depends only on xs[k], so results are order- and
  /// thread-count-independent.
  virtual void value_batch(std::span<const std::vector<double>> xs,
                           std::span<double> out) const;

  /// True when value()/value_and_gradient() may be called concurrently from
  /// multiple threads. Objectives that only read immutable state during
  /// evaluation (all orchestrator objectives) should override to true.
  virtual bool thread_safe() const { return false; }

  /// Finite-difference step used by the default gradient.
  virtual double fd_step() const { return 1e-5; }
};

/// Objective from plain functions (tests, ablations). Pass
/// `thread_safe=true` when `fn` is safe to call concurrently.
class FunctionObjective final : public Objective {
 public:
  using ValueFn = std::function<double(std::span<const double>)>;

  FunctionObjective(std::size_t dimension, ValueFn fn, bool thread_safe = false)
      : dimension_(dimension), fn_(std::move(fn)), thread_safe_(thread_safe) {}

  std::size_t dimension() const override { return dimension_; }
  double value(std::span<const double> x) const override { return fn_(x); }
  bool thread_safe() const override { return thread_safe_; }

 private:
  std::size_t dimension_;
  ValueFn fn_;
  bool thread_safe_;
};

/// Weighted sum of sub-objectives over the same variable vector — the joint
/// multitasking loss of paper Fig 5 is CoverageLoss + LocalizationLoss.
class WeightedSumObjective final : public Objective {
 public:
  /// Terms are non-owning and must outlive this object.
  void add_term(const Objective* objective, double weight);

  std::size_t dimension() const override;
  double value(std::span<const double> x) const override;
  /// Sums each term's value_and_gradient exactly once; the combined value is
  /// recovered from those same calls, never from an extra value(x) pass, so
  /// no term is evaluated twice at the base point.
  double value_and_gradient(std::span<const double> x,
                            std::span<double> gradient) const override;
  /// Thread-safe exactly when every term is.
  bool thread_safe() const override;

 private:
  std::vector<std::pair<const Objective*, double>> terms_;
};

}  // namespace surfos::opt
