#include "orch/objectives.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "em/soa.hpp"
#include "sense/aoa.hpp"
#include "sense/steering.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace surfos::orch {

namespace {

constexpr double kLn2 = 0.6931471805599453;

// A term's gradient walks its RX in fixed-size blocks: pool workers fill
// the block's per-RX slots (a link term's channels, plus dh/dc for RX with
// live cascades; a localization term's losses and loss gradients), then the
// block is reduced serially in RX-index order. The block size is a constant
// (never a function of the thread count), so every result bit is identical
// under any SURFOS_THREADS setting, while scratch stays bounded by the
// block, not the full RX set.
constexpr std::size_t kRxBlock = 64;

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
  sim::LinkFold fold;     ///< Link terms: the RX set's single-bounce fold.
  std::size_t panel = 0;  ///< Localization: sensing panel index.
  std::unique_ptr<sense::AoaSensingModel> model;
  std::vector<std::vector<double>> targets;  ///< Per probe location.
};

struct JointObjective::Scratch {
  std::vector<em::CxPlanes> planes;  ///< Coefficients at the current x.
  std::vector<em::CxPlanes> jc;      ///< j * planes, for link gradients.
  std::vector<double> slots;         ///< Localization: per-RX losses.
  std::vector<em::CxPlanes> sums;    ///< Per panel: each row's fold sum.
  std::vector<em::Cx> h;             ///< Per row: the channel.
  /// Per block row with live cascades: dh/dc, one CxPlanes per panel.
  std::vector<std::vector<em::CxPlanes>> dh;
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
  // Link terms run the channel's folds against the variables' coefficient
  // planes panel by panel, so both must index the same panels.
  bool same_panels = variables_->panel_count() == channel_->panel_count();
  for (std::size_t p = 0; same_panels && p < channel_->panel_count(); ++p) {
    same_panels = variables_->panel(p).element_count() ==
                  channel_->panel(p).element_count();
  }
  if (!same_panels) {
    throw std::invalid_argument("objective: channel and variables panels differ");
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
  sim::LinkFold fold = channel_->fold_links(rx_indices);
  Term& term = new_term(TermKind::kCapacity, std::move(rx_indices), weight,
                        "CapacityObjective");
  term.rho = rho;
  term.sign = sign;
  term.fold = std::move(fold);
}

void JointObjective::add_power_delivery(std::vector<std::size_t> rx_indices,
                                        double p0, double weight) {
  if (p0 <= 0.0) throw std::invalid_argument("PowerDeliveryObjective: p0 <= 0");
  sim::LinkFold fold = channel_->fold_links(rx_indices);
  Term& term = new_term(TermKind::kPowerDelivery, std::move(rx_indices),
                        weight, "PowerDeliveryObjective");
  term.p0 = p0;
  term.fold = std::move(fold);
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
  // j * c_e is the RX-independent factor of every link gradient:
  // cscale(0 + 1j) forms it with the operations j * c would.
  s.jc = s.planes;
  for (em::CxPlanes& jc : s.jc) {
    util::simd::ops().cscale(jc.re(), jc.im(), 0.0, 1.0, jc.padded_size());
  }
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

void JointObjective::fold_sums(const Term& term, Scratch& s,
                               std::size_t begin, std::size_t end) const {
  const sim::LinkFold& fold = term.fold;
  const std::size_t np = fold.t.size();
  const auto& kn = util::simd::ops();
  for (std::size_t p = 0; p < np; ++p) {
    const em::CxPlaneMat& t = fold.t[p];
    const em::CxPlanes& c = s.planes[p];
    kn.cmatvec(t.row_re(begin), t.row_im(begin), end - begin, t.stride(),
               t.stride(), c.re(), c.im(), s.sums[p].re() + begin,
               s.sums[p].im() + begin);
  }
  for (std::size_t k = begin; k < end; ++k) {
    em::Cx h = fold.h_dir[k];
    for (std::size_t p = 0; p < np; ++p) {
      if (fold.serves[k * np + p] == 0) continue;
      h += em::Cx{s.sums[p].re()[k], s.sums[p].im()[k]};
    }
    s.h[k] = h;
  }
}

void JointObjective::cascade_rows(const Term& term, Scratch& s,
                                  std::size_t begin, std::size_t end,
                                  bool partials) const {
  const sim::LinkFold& fold = term.fold;
  if (!fold.any_cascades) return;
  util::parallel_for(begin, end, [&](std::size_t k) {
    if (fold.cascades[k] == 0) return;
    std::vector<em::CxPlanes>* dh = nullptr;
    if (partials) {
      // The single-bounce partials are the folded rows themselves.
      dh = &s.dh[k - begin];
      dh->resize(fold.t.size());
      for (std::size_t p = 0; p < fold.t.size(); ++p) {
        const em::CxPlaneMat& t = fold.t[p];
        em::CxPlanes& d = (*dh)[p];
        d.resize(t.cols());
        std::copy_n(t.row_re(k), t.stride(), d.re());
        std::copy_n(t.row_im(k), t.stride(), d.im());
      }
    }
    channel_->add_cascades(term.rx[k], s.planes, s.h[k], dh);
  });
}

void JointObjective::size_link_scratch(const Term& term, Scratch& s) const {
  const std::size_t m = term.rx.size();
  s.h.resize(m);
  s.sums.resize(term.fold.t.size());
  for (em::CxPlanes& sum : s.sums) sum.resize(m);
}

double JointObjective::term_value(const Term& term, Scratch& s) const {
  const std::size_t m = term.rx.size();
  if (term.kind == TermKind::kLocalization) {
    s.slots.resize(m);
    const em::CxPlanes& c = s.planes[term.panel];
    util::parallel_for(0, m, [&](std::size_t k) {
      s.slots[k] = term.model->loss(
          c, channel_->rx_planes(term.panel, term.rx[k]), term.targets[k]);
    });
    double sum = 0.0;
    for (const double loss : s.slots) sum += loss;
    return sum / static_cast<double>(m);
  }
  // Rows are independent, so any split of [0, m) gives the same bits.
  size_link_scratch(term, s);
  util::parallel_for(0, (m + kRxBlock - 1) / kRxBlock, [&](std::size_t b) {
    fold_sums(term, s, b * kRxBlock, std::min(m, (b + 1) * kRxBlock));
  });
  cascade_rows(term, s, 0, m, /*partials=*/false);
  double sum = 0.0;
  if (term.kind == TermKind::kCapacity) {
    for (const em::Cx& h : s.h) sum += std::log2(1.0 + term.rho * std::norm(h));
    return -term.sign * sum / static_cast<double>(m);
  }
  for (const em::Cx& h : s.h) sum += std::norm(h);
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
    return sum / static_cast<double>(m);  // term_value's expression
  }

  // Link terms: dL/d|h_j|^2 is the only per-kind difference. Each RX adds
  // 2w Re(conj(h) j c_e dh/dc_e) to element e's gradient, in RX order.
  const sim::LinkFold& fold = term.fold;
  const std::size_t np = fold.t.size();
  const auto& kn = util::simd::ops();
  const bool capacity = term.kind == TermKind::kCapacity;
  const double scale = capacity ? 0.0 : 1.0 / (term.p0 * static_cast<double>(m));
  size_link_scratch(term, s);
  if (fold.any_cascades && s.dh.size() < block) s.dh.resize(block);
  for (std::size_t start = 0; start < m; start += block) {
    const std::size_t end = start + std::min(block, m - start);
    fold_sums(term, s, start, end);
    cascade_rows(term, s, start, end, /*partials=*/true);
    for (std::size_t k = start; k < end; ++k) {
      const em::Cx h = s.h[k];
      const double power = std::norm(h);
      double weight = -scale;
      if (capacity) {
        sum += std::log2(1.0 + term.rho * power);
        // dL/d|h|^2 = -sign/M * rho / ((1 + rho |h|^2) ln 2).
        weight = -term.sign * inv_m * term.rho /
                 ((1.0 + term.rho * power) * kLn2);
      } else {
        sum += power;
      }
      for (std::size_t p = 0; p < np; ++p) {
        const em::CxPlanes& jc = s.jc[p];
        const double* dr = fold.t[p].row_re(k);
        const double* di = fold.t[p].row_im(k);
        if (fold.cascades[k] != 0) {
          dr = s.dh[k - start][p].re();
          di = s.dh[k - start][p].im();
        } else if (fold.serves[k * np + p] == 0) {
          continue;  // dh/dc_p is zero: every product adds +-0
        }
        kn.power_grad_accum(jc.re(), jc.im(), dr, di, h.real(), h.imag(),
                            weight * 2.0, s.elem_grads[p].data(), jc.size());
      }
    }
  }
  for (std::size_t p = 0; p < np; ++p) {
    variables_->reduce_gradient(p, s.elem_grads[p], s.partial);
  }
  // term_value's expressions, so value() and value_and_gradient() agree
  // bit for bit.
  if (capacity) return -term.sign * sum / static_cast<double>(m);
  return -sum / (term.p0 * static_cast<double>(m));
}

}  // namespace surfos::orch
