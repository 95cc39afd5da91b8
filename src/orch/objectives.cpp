#include "orch/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "em/soa.hpp"
#include "sense/steering.hpp"
#include "sim/digest_memo.hpp"
#include "util/digest.hpp"
#include "util/thread_pool.hpp"

namespace surfos::orch {

namespace {

constexpr double kLn2 = 0.6931471805599453;

// Per-RX work fans out on the thread pool in fixed-size blocks: workers fill
// per-RX slots, then the block is reduced serially in RX-index order. The
// block size is a constant (never a function of the thread count), so both
// the slot values and the floating-point reduction order — and therefore
// every result bit — are identical under any SURFOS_THREADS setting, while
// scratch memory stays bounded by the block, not the full RX set.
constexpr std::size_t kRxBlock = 64;

void check(const void* channel, const void* variables) {
  if (channel == nullptr || variables == nullptr) {
    throw std::invalid_argument("objective: null channel or variables");
  }
}

/// Digest-memoized scalar evaluation: the stored value for x on a hit,
/// otherwise `compute()`, stored under x's digest (SURFOS_EVAL_CACHE).
template <typename Compute>
double memoized(sim::DigestMemo& memo, std::span<const double> x,
                Compute&& compute) {
  if (memo.capacity() == 0) return compute();
  const util::ConfigDigest key = util::digest_values(x);
  double cached = 0.0;
  if (memo.lookup(key, cached)) return cached;
  const double result = compute();
  memo.store(key, result);
  return result;
}

/// Copies the quantized per-panel coefficients into SoA planes for the
/// vectorized channel entry points (bit-exact copy; padding stays zero).
void to_planes(const std::vector<em::CVec>& src,
               std::vector<em::CxPlanes>& dst) {
  dst.resize(src.size());
  for (std::size_t p = 0; p < src.size(); ++p) dst[p].assign(src[p]);
}

/// Accumulates d|h|^2/dphi for one RX into per-panel element gradients:
/// d|h|^2/dphi_e = 2 Re(conj(h) * j * c_e * dh/dc_e), scaled by `weight`.
void accumulate_power_gradient(const em::Cx& h,
                               const std::vector<em::CxPlanes>& dh_dc,
                               const std::vector<em::CxPlanes>& coefficients,
                               double weight,
                               std::vector<std::vector<double>>& elem_grads) {
  const em::Cx h_conj = std::conj(h);
  for (std::size_t p = 0; p < dh_dc.size(); ++p) {
    const double* cr = coefficients[p].re();
    const double* ci = coefficients[p].im();
    const double* dr = dh_dc[p].re();
    const double* di = dh_dc[p].im();
    for (std::size_t e = 0; e < dh_dc[p].size(); ++e) {
      const em::Cx dh_dphi =
          em::Cx{0.0, 1.0} * em::Cx{cr[e], ci[e]} * em::Cx{dr[e], di[e]};
      elem_grads[p][e] += weight * 2.0 * (h_conj * dh_dphi).real();
    }
  }
}

}  // namespace

// --- CapacityObjective -------------------------------------------------------

CapacityObjective::CapacityObjective(const sim::SceneChannel* channel,
                                     const PanelVariables* variables,
                                     std::vector<std::size_t> rx_indices,
                                     double rho, double sign)
    : channel_(channel),
      variables_(variables),
      rx_indices_(std::move(rx_indices)),
      rho_(rho),
      sign_(sign) {
  check(channel_, variables_);
  if (rx_indices_.empty()) {
    throw std::invalid_argument("CapacityObjective: no RX indices");
  }
  if (rho_ <= 0.0) throw std::invalid_argument("CapacityObjective: rho <= 0");
  memo_ = std::make_unique<sim::DigestMemo>();
}

CapacityObjective::~CapacityObjective() = default;

std::size_t CapacityObjective::dimension() const {
  return variables_->dimension();
}

double CapacityObjective::value(std::span<const double> x) const {
  return memoized(*memo_, x, [&] {
    thread_local std::vector<em::CVec> coeff_scratch;
    thread_local std::vector<em::CxPlanes> coeff_planes;
    variables_->coefficients_into(x, coeff_scratch);
    to_planes(coeff_scratch, coeff_planes);
    const auto& coefficients = coeff_planes;
    std::vector<double> powers(rx_indices_.size());
    util::parallel_for(0, rx_indices_.size(), [&](std::size_t k) {
      powers[k] =
          std::norm(channel_->evaluate_planes(rx_indices_[k], coefficients));
    });
    double sum = 0.0;
    for (const double power : powers) sum += std::log2(1.0 + rho_ * power);
    return -sign_ * sum / static_cast<double>(rx_indices_.size());
  });
}

double CapacityObjective::value_and_gradient(std::span<const double> x,
                                             std::span<double> gradient) const {
  thread_local std::vector<em::CVec> coeff_scratch;
  thread_local std::vector<em::CxPlanes> coeff_planes;
  variables_->coefficients_into(x, coeff_scratch);
  to_planes(coeff_scratch, coeff_planes);
  const auto& coefficients = coeff_planes;
  std::fill(gradient.begin(), gradient.end(), 0.0);
  std::vector<std::vector<double>> elem_grads(variables_->panel_count());
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    elem_grads[p].assign(variables_->panel(p).element_count(), 0.0);
  }
  const double inv_m = 1.0 / static_cast<double>(rx_indices_.size());
  double sum = 0.0;
  const std::size_t m = rx_indices_.size();
  const std::size_t block = std::min<std::size_t>(kRxBlock, m);
  std::vector<em::Cx> h_slots(block);
  std::vector<std::vector<em::CxPlanes>> dh_slots(block);
  for (std::size_t start = 0; start < m; start += block) {
    const std::size_t count = std::min(block, m - start);
    util::parallel_for(0, count, [&](std::size_t t) {
      channel_->evaluate_with_partials_planes(rx_indices_[start + t],
                                              coefficients, h_slots[t],
                                              dh_slots[t]);
    });
    for (std::size_t t = 0; t < count; ++t) {
      const double power = std::norm(h_slots[t]);
      sum += std::log2(1.0 + rho_ * power);
      // dL/d|h|^2 = -sign/M * rho / ((1 + rho |h|^2) ln 2).
      const double weight =
          -sign_ * inv_m * rho_ / ((1.0 + rho_ * power) * kLn2);
      accumulate_power_gradient(h_slots[t], dh_slots[t], coefficients, weight,
                                elem_grads);
    }
  }
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    variables_->reduce_gradient(p, elem_grads[p], gradient);
  }
  return -sign_ * sum * inv_m;
}

// --- PowerDeliveryObjective --------------------------------------------------

PowerDeliveryObjective::PowerDeliveryObjective(
    const sim::SceneChannel* channel, const PanelVariables* variables,
    std::vector<std::size_t> rx_indices, double p0)
    : channel_(channel),
      variables_(variables),
      rx_indices_(std::move(rx_indices)),
      p0_(p0) {
  check(channel_, variables_);
  if (rx_indices_.empty()) {
    throw std::invalid_argument("PowerDeliveryObjective: no RX indices");
  }
  if (p0_ <= 0.0) throw std::invalid_argument("PowerDeliveryObjective: p0 <= 0");
  memo_ = std::make_unique<sim::DigestMemo>();
}

PowerDeliveryObjective::~PowerDeliveryObjective() = default;

std::size_t PowerDeliveryObjective::dimension() const {
  return variables_->dimension();
}

double PowerDeliveryObjective::value(std::span<const double> x) const {
  return memoized(*memo_, x, [&] {
    thread_local std::vector<em::CVec> coeff_scratch;
    thread_local std::vector<em::CxPlanes> coeff_planes;
    variables_->coefficients_into(x, coeff_scratch);
    to_planes(coeff_scratch, coeff_planes);
    const auto& coefficients = coeff_planes;
    std::vector<double> powers(rx_indices_.size());
    util::parallel_for(0, rx_indices_.size(), [&](std::size_t k) {
      powers[k] =
          std::norm(channel_->evaluate_planes(rx_indices_[k], coefficients));
    });
    double sum = 0.0;
    for (const double power : powers) sum += power;
    return -sum / (p0_ * static_cast<double>(rx_indices_.size()));
  });
}

double PowerDeliveryObjective::value_and_gradient(
    std::span<const double> x, std::span<double> gradient) const {
  thread_local std::vector<em::CVec> coeff_scratch;
  thread_local std::vector<em::CxPlanes> coeff_planes;
  variables_->coefficients_into(x, coeff_scratch);
  to_planes(coeff_scratch, coeff_planes);
  const auto& coefficients = coeff_planes;
  std::fill(gradient.begin(), gradient.end(), 0.0);
  std::vector<std::vector<double>> elem_grads(variables_->panel_count());
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    elem_grads[p].assign(variables_->panel(p).element_count(), 0.0);
  }
  const double scale = 1.0 / (p0_ * static_cast<double>(rx_indices_.size()));
  double sum = 0.0;
  const std::size_t m = rx_indices_.size();
  const std::size_t block = std::min<std::size_t>(kRxBlock, m);
  std::vector<em::Cx> h_slots(block);
  std::vector<std::vector<em::CxPlanes>> dh_slots(block);
  for (std::size_t start = 0; start < m; start += block) {
    const std::size_t count = std::min(block, m - start);
    util::parallel_for(0, count, [&](std::size_t t) {
      channel_->evaluate_with_partials_planes(rx_indices_[start + t],
                                              coefficients, h_slots[t],
                                              dh_slots[t]);
    });
    for (std::size_t t = 0; t < count; ++t) {
      sum += std::norm(h_slots[t]);
      accumulate_power_gradient(h_slots[t], dh_slots[t], coefficients, -scale,
                                elem_grads);
    }
  }
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    variables_->reduce_gradient(p, elem_grads[p], gradient);
  }
  return -sum * scale;
}

// --- LocalizationObjective ---------------------------------------------------

LocalizationObjective::LocalizationObjective(
    const sim::SceneChannel* channel, const PanelVariables* variables,
    std::size_t sensing_panel, std::vector<std::size_t> rx_indices,
    std::size_t spectrum_bins)
    : channel_(channel),
      variables_(variables),
      sensing_panel_(sensing_panel),
      rx_indices_(std::move(rx_indices)) {
  check(channel_, variables_);
  if (sensing_panel_ >= variables_->panel_count()) {
    throw std::invalid_argument("LocalizationObjective: bad panel index");
  }
  if (rx_indices_.empty()) {
    throw std::invalid_argument("LocalizationObjective: no RX indices");
  }
  const auto& panel = variables_->panel(sensing_panel_);
  model_ = std::make_unique<sense::AoaSensingModel>(&panel,
                                                    channel_->frequency_hz(),
                                                    spectrum_bins);
  targets_.reserve(rx_indices_.size());
  g_cache_.reserve(rx_indices_.size());
  for (std::size_t j : rx_indices_) {
    const double truth = sense::true_azimuth(panel, channel_->rx_point(j));
    targets_.push_back(model_->target_distribution(truth));
    g_cache_.push_back(channel_->rx_vector(sensing_panel_, j));
  }
  memo_ = std::make_unique<sim::DigestMemo>();
}

LocalizationObjective::~LocalizationObjective() = default;

std::size_t LocalizationObjective::dimension() const {
  return variables_->dimension();
}

double LocalizationObjective::value(std::span<const double> x) const {
  return memoized(*memo_, x, [&] {
    thread_local std::vector<em::CVec> coeff_scratch;
    variables_->coefficients_into(x, coeff_scratch);
    const em::CVec& c = coeff_scratch[sensing_panel_];
    std::vector<double> losses(rx_indices_.size());
    util::parallel_for(0, rx_indices_.size(), [&](std::size_t k) {
      losses[k] = model_->loss(c, g_cache_[k], targets_[k]);
    });
    double sum = 0.0;
    for (const double loss : losses) sum += loss;
    return sum / static_cast<double>(rx_indices_.size());
  });
}

double LocalizationObjective::value_and_gradient(
    std::span<const double> x, std::span<double> gradient) const {
  thread_local std::vector<em::CVec> coeff_scratch;
  variables_->coefficients_into(x, coeff_scratch);
  const em::CVec& c = coeff_scratch[sensing_panel_];
  std::fill(gradient.begin(), gradient.end(), 0.0);
  const std::size_t n = variables_->panel(sensing_panel_).element_count();
  std::vector<double> elem_grad(n, 0.0);
  const double inv_m = 1.0 / static_cast<double>(rx_indices_.size());
  double sum = 0.0;
  const std::size_t m = rx_indices_.size();
  const std::size_t block = std::min<std::size_t>(kRxBlock, m);
  std::vector<double> loss_slots(block);
  std::vector<std::vector<double>> grad_slots(block,
                                              std::vector<double>(n));
  for (std::size_t start = 0; start < m; start += block) {
    const std::size_t count = std::min(block, m - start);
    util::parallel_for(0, count, [&](std::size_t t) {
      loss_slots[t] = model_->loss(c, g_cache_[start + t],
                                   targets_[start + t], grad_slots[t]);
    });
    for (std::size_t t = 0; t < count; ++t) {
      sum += loss_slots[t];
      for (std::size_t e = 0; e < n; ++e) {
        elem_grad[e] += inv_m * grad_slots[t][e];
      }
    }
  }
  variables_->reduce_gradient(sensing_panel_, elem_grad, gradient);
  return sum * inv_m;
}

}  // namespace surfos::orch
