// Optimizer substrate tests. Each algorithm is checked on convex and
// non-convex benchmarks plus the periodic (phase-like) landscape the real
// objectives live on; the suite is parameterized so every optimizer clears
// the same bar.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "opt/objective.hpp"
#include "opt/optimizer.hpp"
#include "util/units.hpp"

namespace surfos::opt {
namespace {

/// Convex quadratic centered at (1, -2, 3, ...).
class Quadratic final : public Objective {
 public:
  explicit Quadratic(std::size_t n) : n_(n) {}
  std::size_t dimension() const override { return n_; }
  double value(std::span<const double> x) const override {
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      const double c = center(i);
      sum += (x[i] - c) * (x[i] - c);
    }
    return sum;
  }
  double value_and_gradient(std::span<const double> x,
                            std::span<double> g) const override {
    for (std::size_t i = 0; i < n_; ++i) g[i] = 2.0 * (x[i] - center(i));
    return value(x);
  }
  static double center(std::size_t i) {
    return (i % 2 == 0) ? 1.0 : -2.0;
  }

 private:
  std::size_t n_;
};

/// Periodic landscape f = sum (1 - cos(x_i - t_i)) — the shape of phase
/// alignment losses; global minima at t_i + 2*pi*k.
class PhaseAlignment final : public Objective {
 public:
  explicit PhaseAlignment(std::size_t n) : n_(n) {}
  std::size_t dimension() const override { return n_; }
  double value(std::span<const double> x) const override {
    double sum = 0.0;
    for (std::size_t i = 0; i < n_; ++i) {
      sum += 1.0 - std::cos(x[i] - target(i));
    }
    return sum;
  }
  double value_and_gradient(std::span<const double> x,
                            std::span<double> g) const override {
    for (std::size_t i = 0; i < n_; ++i) g[i] = std::sin(x[i] - target(i));
    return value(x);
  }
  static double target(std::size_t i) {
    return 0.4 * static_cast<double>(i) - 1.0;
  }

 private:
  std::size_t n_;
};

// --- Objective plumbing -----------------------------------------------------------

TEST(Objective, FiniteDifferenceDefaultMatchesAnalytic) {
  const Quadratic quadratic(4);
  const FunctionObjective fd(4, [&](std::span<const double> x) {
    return quadratic.value(x);
  });
  const std::vector<double> x{0.5, 0.5, -1.0, 2.0};
  std::vector<double> g_fd(4), g_an(4);
  const double v_fd = fd.value_and_gradient(x, g_fd);
  const double v_an = quadratic.value_and_gradient(x, g_an);
  EXPECT_NEAR(v_fd, v_an, 1e-12);
  for (int i = 0; i < 4; ++i) EXPECT_NEAR(g_fd[i], g_an[i], 1e-6);
}

TEST(Objective, GradientSizeIsValidated) {
  // The base-class finite-difference implementation validates sizes.
  const FunctionObjective objective(3, [](std::span<const double>) {
    return 0.0;
  });
  std::vector<double> g(2);
  EXPECT_THROW(objective.value_and_gradient(std::vector<double>(3), g),
               std::invalid_argument);
}

TEST(WeightedSum, CombinesValuesAndGradients) {
  const Quadratic a(3);
  const PhaseAlignment b(3);
  WeightedSumObjective joint;
  joint.add_term(&a, 2.0);
  joint.add_term(&b, 0.5);
  const std::vector<double> x{0.1, 0.2, 0.3};
  std::vector<double> ga(3), gb(3), gj(3);
  const double va = a.value_and_gradient(x, ga);
  const double vb = b.value_and_gradient(x, gb);
  const double vj = joint.value_and_gradient(x, gj);
  EXPECT_NEAR(vj, 2.0 * va + 0.5 * vb, 1e-12);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(gj[i], 2.0 * ga[i] + 0.5 * gb[i], 1e-12);
  }
  EXPECT_NEAR(joint.value(x), vj, 1e-12);
}

TEST(WeightedSum, RejectsNullAndMismatchedTerms) {
  WeightedSumObjective joint;
  EXPECT_THROW(joint.add_term(nullptr, 1.0), std::invalid_argument);
  const Quadratic a(3);
  const Quadratic b(4);
  joint.add_term(&a, 1.0);
  EXPECT_THROW(joint.add_term(&b, 1.0), std::invalid_argument);
}

TEST(WeightedSum, MixedThreadSafetyAndDeltaEquivalence) {
  const std::size_t n = 6;
  const FunctionObjective quad(
      n,
      [](std::span<const double> x) {
        double s = 0.0;
        for (const double v : x) s += (v - 0.3) * (v - 0.3);
        return s;
      },
      /*thread_safe=*/true);
  const FunctionObjective quartic(
      n,
      [](std::span<const double> x) {
        double s = 0.0;
        for (const double v : x) s += v * v * v * v;
        return s;
      },
      /*thread_safe=*/false);
  WeightedSumObjective joint;
  joint.add_term(&quad, 2.0);
  joint.add_term(&quartic, 0.5);
  // One non-thread-safe term must force the sum serial.
  EXPECT_FALSE(joint.thread_safe());

  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = 0.1 * static_cast<double>(i + 1);
  const double base = joint.value(x);
  EXPECT_EQ(base, 2.0 * quad.value(x) + 0.5 * quartic.value(x));

  // value_and_gradient sums each term's value and gradient exactly once.
  std::vector<double> g(n), g_quad(n), g_quartic(n);
  EXPECT_EQ(joint.value_and_gradient(x, g), base);
  quad.value_and_gradient(x, g_quad);
  quartic.value_and_gradient(x, g_quartic);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(g[i], 2.0 * g_quad[i] + 0.5 * g_quartic[i]) << "coord " << i;
  }
}

// --- All optimizers, same bar -------------------------------------------------------

std::vector<std::unique_ptr<Optimizer>> all_optimizers() {
  std::vector<std::unique_ptr<Optimizer>> out;
  out.push_back(std::make_unique<GradientDescent>());
  out.push_back(std::make_unique<Adam>());
  out.push_back(std::make_unique<Spsa>());
  RandomSearchOptions rs;
  rs.max_evaluations = 20000;
  rs.sigma = 0.5;
  out.push_back(std::make_unique<RandomSearch>(rs));
  AnnealingOptions an;
  an.max_evaluations = 30000;
  out.push_back(std::make_unique<SimulatedAnnealing>(an));
  CmaEsOptions cm;
  cm.max_evaluations = 20000;
  out.push_back(std::make_unique<CmaEs>(cm));
  return out;
}

class OptimizerTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<Optimizer> optimizer() const {
    auto all = all_optimizers();
    return std::move(all[static_cast<std::size_t>(GetParam())]);
  }
};

TEST_P(OptimizerTest, SolvesQuadratic) {
  const Quadratic objective(6);
  const auto result =
      optimizer()->minimize(objective, std::vector<double>(6, 0.0));
  EXPECT_LT(result.value, 0.05) << optimizer()->name();
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_NEAR(result.x[i], Quadratic::center(i), 0.25)
        << optimizer()->name() << " coord " << i;
  }
}

TEST_P(OptimizerTest, AlignsPhases) {
  const PhaseAlignment objective(8);
  const auto result =
      optimizer()->minimize(objective, std::vector<double>(8, 0.0));
  EXPECT_LT(result.value, 0.1) << optimizer()->name();
}

TEST_P(OptimizerTest, NeverWorsensInitialPoint) {
  const PhaseAlignment objective(5);
  std::vector<double> x0(5);
  for (std::size_t i = 0; i < 5; ++i) x0[i] = PhaseAlignment::target(i) + 0.05;
  const double v0 = objective.value(x0);
  const auto result = optimizer()->minimize(objective, x0);
  EXPECT_LE(result.value, v0 + 1e-12) << optimizer()->name();
}

TEST_P(OptimizerTest, RejectsDimensionMismatch) {
  const Quadratic objective(4);
  EXPECT_THROW(optimizer()->minimize(objective, std::vector<double>(3)),
               std::invalid_argument);
}

TEST_P(OptimizerTest, ReportsEvaluationCounts) {
  const Quadratic objective(3);
  const auto result =
      optimizer()->minimize(objective, std::vector<double>(3, 5.0));
  EXPECT_GT(result.evaluations, 0u);
  EXPECT_GT(result.iterations, 0u);
}

std::string optimizer_case_name(const ::testing::TestParamInfo<int>& info) {
  static const char* kNames[] = {"GradientDescent", "Adam", "Spsa",
                                 "RandomSearch", "Annealing", "CmaEs"};
  return kNames[static_cast<std::size_t>(info.param)];
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, OptimizerTest, ::testing::Range(0, 6),
                         optimizer_case_name);

// --- Algorithm-specific behaviours ---------------------------------------------------

TEST(GradientDescentTest, ConvergesFlagOnStall) {
  const Quadratic objective(2);
  GradientDescentOptions options;
  options.max_iterations = 500;
  const auto result = GradientDescent(options).minimize(
      objective, std::vector<double>{4.0, -4.0});
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.value, 1e-6);
}

TEST(GradientDescentTest, MonotoneDecrease) {
  // GD with line search never accepts a worse iterate: final <= initial.
  const PhaseAlignment objective(4);
  const std::vector<double> x0{2.0, 2.0, 2.0, 2.0};
  const double v0 = objective.value(x0);
  const auto result = GradientDescent().minimize(objective, x0);
  EXPECT_LE(result.value, v0);
}

TEST(SpsaTest, DeterministicForFixedSeed) {
  const PhaseAlignment objective(4);
  SpsaOptions options;
  options.seed = 99;
  const auto a = Spsa(options).minimize(objective, std::vector<double>(4, 1.0));
  const auto b = Spsa(options).minimize(objective, std::vector<double>(4, 1.0));
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.x, b.x);
}

TEST(RandomSearchTest, RespectsEvaluationBudget) {
  const Quadratic objective(3);
  RandomSearchOptions options;
  options.max_evaluations = 100;
  const auto result =
      RandomSearch(options).minimize(objective, std::vector<double>(3, 0.0));
  EXPECT_LE(result.evaluations, 100u);
}

TEST(CmaEsTest, DeterministicForFixedSeed) {
  const PhaseAlignment objective(5);
  CmaEsOptions options;
  options.seed = 123;
  options.max_evaluations = 3000;
  const auto a = CmaEs(options).minimize(objective, std::vector<double>(5, 1.0));
  const auto b = CmaEs(options).minimize(objective, std::vector<double>(5, 1.0));
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.x, b.x);
}

TEST(CmaEsTest, StepSizeCollapseReportsConvergence) {
  const Quadratic objective(3);
  CmaEsOptions options;
  options.max_evaluations = 50000;
  options.sigma_stop = 1e-6;
  const auto result = CmaEs(options).minimize(objective,
                                              std::vector<double>(3, 4.0));
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.value, 1e-3);
}

TEST(AnnealingTest, EscapesPoorStart) {
  // Start in the basin of a local minimum of a two-well function.
  const FunctionObjective objective(1, [](std::span<const double> x) {
    const double t = x[0];
    // Global min at t=3 (value -2), local min at t=-2 (value -1).
    return 0.05 * t * t - 2.0 * std::exp(-(t - 3.0) * (t - 3.0)) -
           1.0 * std::exp(-(t + 2.0) * (t + 2.0));
  });
  AnnealingOptions options;
  options.max_evaluations = 20000;
  options.sigma = 2.5;
  const auto result = SimulatedAnnealing(options).minimize(
      objective, std::vector<double>{-2.0});
  EXPECT_NEAR(result.x[0], 3.0, 0.5);
}

}  // namespace
}  // namespace surfos::opt
