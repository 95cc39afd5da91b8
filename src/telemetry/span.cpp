#include "telemetry/span.hpp"

namespace surfos::telemetry {

Span::Span(const char* name) noexcept : name_(name) {
  if (!enabled()) return;
  // Registration is cold after the first span of a given name; the registry
  // hands back a stable reference.
  histogram_ = &MetricsRegistry::instance().histogram(name_);
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

Span::~Span() {
  if (!active_) return;
  histogram_->record(elapsed_us());
}

double Span::elapsed_us() const noexcept {
  if (!active_) return 0.0;
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
  return static_cast<double>(ns) / 1e3;
}

}  // namespace surfos::telemetry
