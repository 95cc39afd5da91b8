#include "sim/raytracer.hpp"

#include <cmath>
#include <stdexcept>

#include "em/band.hpp"
#include "em/propagation.hpp"
#include "telemetry/telemetry.hpp"

namespace surfos::sim {

double PropPath::delay_s() const { return length_m / em::kSpeedOfLight; }

RayTracer::RayTracer(const Environment* environment, double frequency_hz,
                     TracerOptions options)
    : environment_(environment),
      frequency_hz_(frequency_hz),
      options_(options) {
  if (environment_ == nullptr) {
    throw std::invalid_argument("RayTracer: null environment");
  }
  if (!environment_->finalized()) {
    throw std::logic_error("RayTracer: environment not finalized");
  }
  if (frequency_hz_ <= 0.0) {
    throw std::invalid_argument("RayTracer: non-positive frequency");
  }
}

std::vector<PropPath> RayTracer::trace(const geom::Vec3& a,
                                       const geom::Vec3& b) const {
  std::vector<PropPath> paths;
  direct_path(a, b, paths);
  for (int order = 1; order <= options_.max_reflection_order; ++order) {
    reflected_paths(a, b, order, paths);
  }
  SURFOS_COUNT_SCHED("sim.rays.traces", 1);
  SURFOS_COUNT_N("sim.rays.paths", paths.size());
  return paths;
}

em::Cx RayTracer::total_gain(const geom::Vec3& a, const geom::Vec3& b) const {
  em::Cx sum{};
  for (const PropPath& path : trace(a, b)) sum += path.gain;
  return sum;
}

void RayTracer::direct_path(const geom::Vec3& a, const geom::Vec3& b,
                            std::vector<PropPath>& out) const {
  const double distance = a.distance_to(b);
  if (distance < 1e-6) return;
  const em::Cx transmission =
      environment_->segment_transmission(a, b, frequency_hz_);
  if (std::norm(transmission) < 1e-30) return;
  PropPath path;
  path.points = {a, b};
  path.length_m = distance;
  path.bounce_count = 0;
  path.gain = em::free_space_gain(frequency_hz_, distance) * transmission;
  if (std::abs(path.gain) >= options_.min_path_gain) out.push_back(std::move(path));
}

void RayTracer::reflected_paths(const geom::Vec3& a, const geom::Vec3& b,
                                int order, std::vector<PropPath>& out) const {
  const auto reflectors = environment_->reflectors();
  const int n = static_cast<int>(reflectors.size());
  // Enumerate bounce sequences without immediate repeats. Order is small
  // (<= 3 in practice) and n is tens of walls, so exhaustive enumeration is
  // fine and keeps the tracer deterministic.
  std::vector<int> sequence(static_cast<std::size_t>(order), 0);
  const auto total = [&]() {
    double count = n;
    for (int i = 1; i < order; ++i) count *= (n - 1);
    return static_cast<long long>(count);
  }();
  if (n == 0) return;
  for (long long code = 0; code < total; ++code) {
    long long rest = code;
    sequence[0] = static_cast<int>(rest % n);
    rest /= n;
    bool valid = true;
    for (int i = 1; i < order; ++i) {
      int pick = static_cast<int>(rest % (n - 1));
      rest /= (n - 1);
      if (pick >= sequence[i - 1]) ++pick;  // skip immediate repeat
      sequence[static_cast<std::size_t>(i)] = pick;
      if (pick == sequence[static_cast<std::size_t>(i - 1)]) {
        valid = false;
        break;
      }
    }
    if (!valid) continue;
    PropPath path;
    if (build_path(a, b, sequence, path)) {
      if (std::abs(path.gain) >= options_.min_path_gain) {
        out.push_back(std::move(path));
      }
    }
  }
}

bool RayTracer::build_path(const geom::Vec3& a, const geom::Vec3& b,
                           const std::vector<int>& reflector_sequence,
                           PropPath& out) const {
  const auto reflectors = environment_->reflectors();
  const int order = static_cast<int>(reflector_sequence.size());

  // Forward image cascade: images[i] is `a` mirrored across reflectors
  // 0..i of the sequence.
  std::vector<geom::Vec3> images(static_cast<std::size_t>(order));
  geom::Vec3 current = a;
  for (int i = 0; i < order; ++i) {
    current = reflectors[static_cast<std::size_t>(reflector_sequence[i])].mirror(current);
    images[static_cast<std::size_t>(i)] = current;
  }

  // Backward pass: find bounce points from the last reflector to the first.
  std::vector<geom::Vec3> bounces(static_cast<std::size_t>(order));
  geom::Vec3 target = b;
  for (int i = order - 1; i >= 0; --i) {
    const Reflector& reflector =
        reflectors[static_cast<std::size_t>(reflector_sequence[i])];
    const auto point = reflector.segment_plane_point(
        images[static_cast<std::size_t>(i)], target);
    if (!point) return false;
    bounces[static_cast<std::size_t>(i)] = *point;
    target = *point;
  }

  out.points.clear();
  out.points.push_back(a);
  for (const auto& p : bounces) out.points.push_back(p);
  out.points.push_back(b);

  // Geometry is valid; accumulate length, reflection coefficients, and
  // per-leg transmission (excluding the reflecting walls at their own
  // bounce points so the mesh crossing there isn't double-counted as a
  // wall penetration).
  double length = 0.0;
  em::Cx gain{1.0, 0.0};
  for (std::size_t leg = 0; leg + 1 < out.points.size(); ++leg) {
    const geom::Vec3& from = out.points[leg];
    const geom::Vec3& to = out.points[leg + 1];
    length += from.distance_to(to);
    const em::Cx transmission = environment_->segment_transmission(
        from, to, frequency_hz_, bounces);
    if (std::norm(transmission) < 1e-30) return false;
    gain *= transmission;
  }
  for (int i = 0; i < order; ++i) {
    const Reflector& reflector =
        reflectors[static_cast<std::size_t>(reflector_sequence[i])];
    const geom::Vec3& bounce = bounces[static_cast<std::size_t>(i)];
    const geom::Vec3& prev = out.points[static_cast<std::size_t>(i)];
    const geom::Vec3 incoming = (bounce - prev).normalized();
    const double cos_i =
        std::fmin(1.0, std::fabs(incoming.dot(reflector.frame.normal())));
    const double incidence = std::acos(cos_i);
    gain *= em::reflection_coefficient(
        environment_->materials().get(reflector.material_id), frequency_hz_,
        incidence);
  }
  out.length_m = length;
  out.bounce_count = order;
  out.gain = gain * em::free_space_gain(frequency_hz_, length);
  return true;
}

}  // namespace surfos::sim
