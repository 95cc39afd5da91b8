#include "orch/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "em/soa.hpp"
#include "sense/aoa.hpp"
#include "sense/steering.hpp"
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

/// Accumulates d|h|^2/dphi for one RX into per-panel element gradients:
/// d|h|^2/dphi_e = 2 Re(conj(h) * j * c_e * dh/dc_e), scaled by `weight`.
/// The complex products are spelled out as the operations std::complex
/// multiplication performs on finite values, in the same order, so the
/// result bits match the std::complex expression while the loop vectorizes.
void accumulate_power_gradient(const em::Cx& h,
                               const std::vector<em::CxPlanes>& dh_dc,
                               const std::vector<em::CxPlanes>& coefficients,
                               double weight,
                               std::vector<std::vector<double>>& elem_grads) {
  const double hr = h.real();
  const double hi = h.imag();
  const double scale = weight * 2.0;
  for (std::size_t p = 0; p < dh_dc.size(); ++p) {
    const double* cr = coefficients[p].re();
    const double* ci = coefficients[p].im();
    const double* dr = dh_dc[p].re();
    const double* di = dh_dc[p].im();
    double* grad = elem_grads[p].data();
    for (std::size_t e = 0; e < dh_dc[p].size(); ++e) {
      const double jc_re = 0.0 * cr[e] - 1.0 * ci[e];  // j * c_e
      const double jc_im = 0.0 * ci[e] + 1.0 * cr[e];
      const double t_re = jc_re * dr[e] - jc_im * di[e];  // * dh/dc_e
      const double t_im = jc_re * di[e] + jc_im * dr[e];
      // Re(conj(h) * t) = hr * t_re - (-hi) * t_im.
      grad[e] += scale * (hr * t_re - (-hi) * t_im);
    }
  }
}

}  // namespace

/// One service term. Capacity and power delivery are "link" terms: both
/// reduce |h_j|^2 over their RX set and differ only in the per-RX loss.
struct JointObjective::Term {
  TermKind kind;
  double weight;
  std::vector<std::size_t> rx;
  double rho = 0.0;   ///< Capacity: linear SNR per unit |h|^2.
  double sign = 1.0;  ///< Capacity: +1 maximize, -1 suppress.
  double p0 = 1.0;    ///< Power delivery: normalization power gain.
  std::size_t panel = 0;  ///< Localization: sensing panel index.
  std::unique_ptr<sense::AoaSensingModel> model;
  std::vector<std::vector<double>> targets;  ///< Per probe location.
};

struct JointObjective::Scratch {
  std::vector<em::CxPlanes> planes;  ///< Coefficients at the current x.
  std::vector<double> slots;         ///< Per-RX powers or losses.
  std::vector<em::Cx> h;             ///< Per-RX channel, one block.
  std::vector<std::vector<em::CxPlanes>> dh;    ///< Per-RX dh/dc, one block.
  std::vector<std::vector<double>> grad_slots;  ///< Per-RX phase gradients.
  std::vector<std::vector<double>> elem_grads;  ///< Per-panel element grads.
  std::vector<double> partial;                  ///< One term's x-gradient.
};

class JointObjective::Lease {
 public:
  explicit Lease(const JointObjective& owner) : owner_(owner) {
    std::lock_guard<std::mutex> lock(owner_.spare_mutex_);
    if (owner_.spare_.empty()) {
      scratch_ = std::make_unique<Scratch>();
    } else {
      scratch_ = std::move(owner_.spare_.back());
      owner_.spare_.pop_back();
    }
  }
  ~Lease() {
    std::lock_guard<std::mutex> lock(owner_.spare_mutex_);
    owner_.spare_.push_back(std::move(scratch_));
  }
  Lease(const Lease&) = delete;
  Lease& operator=(const Lease&) = delete;
  Scratch& operator*() const noexcept { return *scratch_; }

 private:
  const JointObjective& owner_;
  std::unique_ptr<Scratch> scratch_;
};

JointObjective::JointObjective(const sim::SceneChannel* channel,
                               const PanelVariables* variables)
    : channel_(channel), variables_(variables) {
  if (channel_ == nullptr || variables_ == nullptr) {
    throw std::invalid_argument("objective: null channel or variables");
  }
}

JointObjective::~JointObjective() = default;

JointObjective::Term& JointObjective::new_term(
    TermKind kind, std::vector<std::size_t> rx_indices, double weight,
    const char* name) {
  if (rx_indices.empty()) {
    throw std::invalid_argument(std::string(name) + ": no RX indices");
  }
  auto term = std::make_unique<Term>();
  term->kind = kind;
  term->weight = weight;
  term->rx = std::move(rx_indices);
  terms_.push_back(std::move(term));
  return *terms_.back();
}

void JointObjective::add_capacity(std::vector<std::size_t> rx_indices,
                                  double rho, double sign, double weight) {
  if (rho <= 0.0) throw std::invalid_argument("CapacityObjective: rho <= 0");
  Term& term = new_term(TermKind::kCapacity, std::move(rx_indices), weight,
                        "CapacityObjective");
  term.rho = rho;
  term.sign = sign;
}

void JointObjective::add_power_delivery(std::vector<std::size_t> rx_indices,
                                        double p0, double weight) {
  if (p0 <= 0.0) throw std::invalid_argument("PowerDeliveryObjective: p0 <= 0");
  new_term(TermKind::kPowerDelivery, std::move(rx_indices), weight,
           "PowerDeliveryObjective")
      .p0 = p0;
}

void JointObjective::add_localization(std::size_t sensing_panel,
                                      std::vector<std::size_t> rx_indices,
                                      std::size_t spectrum_bins,
                                      double weight) {
  if (sensing_panel >= variables_->panel_count()) {
    throw std::invalid_argument("LocalizationObjective: bad panel index");
  }
  Term& term = new_term(TermKind::kLocalization, std::move(rx_indices),
                        weight, "LocalizationObjective");
  term.panel = sensing_panel;
  const auto& panel = variables_->panel(sensing_panel);
  term.model = std::make_unique<sense::AoaSensingModel>(
      &panel, channel_->frequency_hz(), spectrum_bins);
  for (const std::size_t j : term.rx) {
    const double truth = sense::true_azimuth(panel, channel_->rx_point(j));
    term.targets.push_back(term.model->target_distribution(truth));
  }
}

double JointObjective::value(std::span<const double> x) const {
  const Lease lease(*this);
  Scratch& s = *lease;
  variables_->coefficients_into(x, s.planes);
  double sum = 0.0;
  for (const auto& term : terms_) sum += term->weight * term_value(*term, s);
  return sum;
}

double JointObjective::value_and_gradient(std::span<const double> x,
                                          std::span<double> gradient) const {
  if (gradient.size() != x.size()) {
    throw std::invalid_argument("JointObjective: gradient size");
  }
  const Lease lease(*this);
  Scratch& s = *lease;
  variables_->coefficients_into(x, s.planes);
  s.partial.resize(x.size());
  std::fill(gradient.begin(), gradient.end(), 0.0);
  double sum = 0.0;
  for (const auto& term : terms_) {
    sum += term->weight * term_value_and_gradient(*term, s);
    for (std::size_t i = 0; i < x.size(); ++i) {
      gradient[i] += term->weight * s.partial[i];
    }
  }
  return sum;
}

double JointObjective::term_value(const Term& term, Scratch& s) const {
  const std::size_t m = term.rx.size();
  s.slots.resize(m);
  if (term.kind == TermKind::kLocalization) {
    const em::CxPlanes& c = s.planes[term.panel];
    util::parallel_for(0, m, [&](std::size_t k) {
      s.slots[k] = term.model->loss(
          c, channel_->rx_planes(term.panel, term.rx[k]), term.targets[k]);
    });
    double sum = 0.0;
    for (const double loss : s.slots) sum += loss;
    return sum / static_cast<double>(m);
  }
  util::parallel_for(0, m, [&](std::size_t k) {
    s.slots[k] = std::norm(channel_->evaluate(term.rx[k], s.planes));
  });
  double sum = 0.0;
  if (term.kind == TermKind::kCapacity) {
    for (const double power : s.slots) sum += std::log2(1.0 + term.rho * power);
    return -term.sign * sum / static_cast<double>(m);
  }
  for (const double power : s.slots) sum += power;
  return -sum / (term.p0 * static_cast<double>(m));
}

double JointObjective::term_value_and_gradient(const Term& term,
                                               Scratch& s) const {
  std::fill(s.partial.begin(), s.partial.end(), 0.0);
  s.elem_grads.resize(variables_->panel_count());
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    s.elem_grads[p].assign(variables_->panel(p).element_count(), 0.0);
  }
  const std::size_t m = term.rx.size();
  const std::size_t block = std::min<std::size_t>(kRxBlock, m);
  const double inv_m = 1.0 / static_cast<double>(m);
  double sum = 0.0;

  if (term.kind == TermKind::kLocalization) {
    const em::CxPlanes& c = s.planes[term.panel];
    std::vector<double>& elem_grad = s.elem_grads[term.panel];
    s.slots.resize(block);
    if (s.grad_slots.size() < block) s.grad_slots.resize(block);
    for (std::size_t t = 0; t < block; ++t) s.grad_slots[t].resize(c.size());
    for (std::size_t start = 0; start < m; start += block) {
      const std::size_t count = std::min(block, m - start);
      util::parallel_for(0, count, [&](std::size_t t) {
        s.slots[t] = term.model->loss(
            c, channel_->rx_planes(term.panel, term.rx[start + t]),
            term.targets[start + t], s.grad_slots[t]);
      });
      for (std::size_t t = 0; t < count; ++t) {
        sum += s.slots[t];
        for (std::size_t e = 0; e < c.size(); ++e) {
          elem_grad[e] += inv_m * s.grad_slots[t][e];
        }
      }
    }
    variables_->reduce_gradient(term.panel, elem_grad, s.partial);
    return sum * inv_m;
  }

  // Link terms: dL/d|h_j|^2 is the only per-kind difference.
  const bool capacity = term.kind == TermKind::kCapacity;
  const double scale = capacity ? 0.0 : 1.0 / (term.p0 * static_cast<double>(m));
  s.h.resize(block);
  if (s.dh.size() < block) s.dh.resize(block);
  for (std::size_t start = 0; start < m; start += block) {
    const std::size_t count = std::min(block, m - start);
    util::parallel_for(0, count, [&](std::size_t t) {
      channel_->evaluate_with_partials(term.rx[start + t], s.planes, s.h[t],
                                       s.dh[t]);
    });
    for (std::size_t t = 0; t < count; ++t) {
      const double power = std::norm(s.h[t]);
      double weight = -scale;
      if (capacity) {
        sum += std::log2(1.0 + term.rho * power);
        // dL/d|h|^2 = -sign/M * rho / ((1 + rho |h|^2) ln 2).
        weight = -term.sign * inv_m * term.rho /
                 ((1.0 + term.rho * power) * kLn2);
      } else {
        sum += power;
      }
      accumulate_power_gradient(s.h[t], s.dh[t], s.planes, weight,
                                s.elem_grads);
    }
  }
  for (std::size_t p = 0; p < variables_->panel_count(); ++p) {
    variables_->reduce_gradient(p, s.elem_grads[p], s.partial);
  }
  return capacity ? -term.sign * sum * inv_m : -sum * scale;
}

}  // namespace surfos::orch
