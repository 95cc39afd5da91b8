// Geometry substrate tests: vector algebra, AABBs, triangle intersection,
// frames, grids, and the BVH-accelerated mesh (property-checked against
// brute force).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "geom/aabb.hpp"
#include "geom/frame.hpp"
#include "geom/grid.hpp"
#include "geom/mesh.hpp"
#include "geom/ray.hpp"
#include "geom/triangle.hpp"
#include "geom/vec3.hpp"
#include "util/rng.hpp"

namespace surfos::geom {
namespace {

TEST(Vec3, BasicAlgebra) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{4, 5, 6};
  EXPECT_EQ(a + b, Vec3(5, 7, 9));
  EXPECT_EQ(b - a, Vec3(3, 3, 3));
  EXPECT_EQ(a * 2.0, Vec3(2, 4, 6));
  EXPECT_EQ(2.0 * a, Vec3(2, 4, 6));
  EXPECT_EQ(-a, Vec3(-1, -2, -3));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
}

TEST(Vec3, CrossIsOrthogonal) {
  const Vec3 a{1, 2, 3};
  const Vec3 b{-2, 0.5, 4};
  const Vec3 c = a.cross(b);
  EXPECT_NEAR(c.dot(a), 0.0, 1e-12);
  EXPECT_NEAR(c.dot(b), 0.0, 1e-12);
  EXPECT_EQ(Vec3(1, 0, 0).cross(Vec3(0, 1, 0)), Vec3(0, 0, 1));
}

TEST(Vec3, NormAndNormalize) {
  const Vec3 v{3, 4, 0};
  EXPECT_DOUBLE_EQ(v.norm(), 5.0);
  EXPECT_NEAR(v.normalized().norm(), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(Vec3(1, 1, 1).distance_to(Vec3(1, 1, 3)), 2.0);
}

TEST(Vec3, ReflectAboutNormal) {
  const Vec3 d{1, -1, 0};
  const Vec3 n{0, 1, 0};
  EXPECT_EQ(reflect(d, n), Vec3(1, 1, 0));
  // Reflection preserves length.
  const Vec3 d2 = Vec3{0.3, -0.8, 0.5};
  EXPECT_NEAR(reflect(d2, n).norm(), d2.norm(), 1e-12);
}

TEST(Aabb, ExpandAndContains) {
  Aabb box;
  EXPECT_TRUE(box.empty());
  box.expand({0, 0, 0});
  box.expand({1, 2, 3});
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.contains({0.5, 1.0, 1.5}));
  EXPECT_FALSE(box.contains({1.5, 1.0, 1.5}));
  EXPECT_EQ(box.center(), Vec3(0.5, 1.0, 1.5));
}

TEST(Aabb, SurfaceArea) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({2, 3, 4});
  EXPECT_DOUBLE_EQ(box.surface_area(), 2.0 * (6.0 + 12.0 + 8.0));
}

TEST(Aabb, RaySlabHit) {
  Aabb box;
  box.expand({0, 0, 0});
  box.expand({1, 1, 1});
  const Ray hit{{-1, 0.5, 0.5}, {1, 0, 0}};
  const Ray miss{{-1, 2.0, 0.5}, {1, 0, 0}};
  const Ray away{{-1, 0.5, 0.5}, {-1, 0, 0}};
  EXPECT_TRUE(box.hit_by(hit, 0.0, 100.0));
  EXPECT_FALSE(box.hit_by(miss, 0.0, 100.0));
  EXPECT_FALSE(box.hit_by(away, 0.0, 100.0));
  // Interval clipping.
  EXPECT_FALSE(box.hit_by(hit, 0.0, 0.5));
}

TEST(Triangle, MollerTrumboreHitAndMiss) {
  const Triangle tri{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0};
  const Ray through{{0.2, 0.2, -1}, {0, 0, 1}};
  const auto t = tri.intersect(through, 1e-9, 100.0);
  ASSERT_TRUE(t.has_value());
  EXPECT_NEAR(*t, 1.0, 1e-12);
  const Ray outside{{0.9, 0.9, -1}, {0, 0, 1}};
  EXPECT_FALSE(tri.intersect(outside, 1e-9, 100.0).has_value());
  const Ray parallel{{0.2, 0.2, -1}, {1, 0, 0}};
  EXPECT_FALSE(tri.intersect(parallel, 1e-9, 100.0).has_value());
}

TEST(Triangle, TwoSidedIntersection) {
  const Triangle tri{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, 0};
  const Ray from_behind{{0.2, 0.2, 1}, {0, 0, -1}};
  EXPECT_TRUE(tri.intersect(from_behind, 1e-9, 100.0).has_value());
}

TEST(Triangle, AreaNormalCentroid) {
  const Triangle tri{{0, 0, 0}, {2, 0, 0}, {0, 2, 0}, 0};
  EXPECT_DOUBLE_EQ(tri.area(), 2.0);
  EXPECT_EQ(tri.geometric_normal(), Vec3(0, 0, 1));
  EXPECT_NEAR(tri.centroid().x, 2.0 / 3.0, 1e-12);
}

TEST(Frame, OrthonormalFromNormal) {
  const Frame f({1, 2, 3}, Vec3{0, 1, 0});
  EXPECT_NEAR(f.u().norm(), 1.0, 1e-12);
  EXPECT_NEAR(f.v().norm(), 1.0, 1e-12);
  EXPECT_NEAR(f.normal().norm(), 1.0, 1e-12);
  EXPECT_NEAR(f.u().dot(f.v()), 0.0, 1e-12);
  EXPECT_NEAR(f.u().dot(f.normal()), 0.0, 1e-12);
  EXPECT_NEAR(f.v().dot(f.normal()), 0.0, 1e-12);
}

TEST(Frame, RoundTripWorldLocal) {
  const Frame f({1, -2, 0.5}, Vec3{0.3, -0.7, 0.2});
  const Vec3 p{4.2, 1.1, -0.3};
  const Vec3 local = f.to_local(p);
  const Vec3 back = f.to_world(local.x, local.y, local.z);
  EXPECT_NEAR(back.distance_to(p), 0.0, 1e-12);
}

TEST(Frame, DirectionTransforms) {
  const Frame f({0, 0, 0}, Vec3{0, 0, 1});
  const Vec3 dir = f.dir_to_world({1, 0, 0});
  EXPECT_NEAR(dir.dot(f.u()), 1.0, 1e-12);
  const Vec3 back = f.dir_to_local(dir);
  EXPECT_NEAR(back.x, 1.0, 1e-12);
}

TEST(Frame, VerticalNormalFallback) {
  // Normal along +z would make the default up-vector degenerate; the frame
  // must still be orthonormal.
  const Frame f({0, 0, 0}, Vec3{0, 0, 1});
  EXPECT_NEAR(f.u().dot(f.normal()), 0.0, 1e-12);
  EXPECT_NEAR(f.u().norm(), 1.0, 1e-12);
}

TEST(Grid, PointsAtCellCenters) {
  const SampleGrid grid(0.0, 2.0, 0.0, 1.0, 1.5, 2, 1);
  EXPECT_EQ(grid.size(), 2u);
  EXPECT_EQ(grid.point(0, 0), Vec3(0.5, 0.5, 1.5));
  EXPECT_EQ(grid.point(1, 0), Vec3(1.5, 0.5, 1.5));
  EXPECT_EQ(grid.point(std::size_t{1}), Vec3(1.5, 0.5, 1.5));
}

TEST(Grid, RejectsBadArguments) {
  EXPECT_THROW(SampleGrid(0, 1, 0, 1, 0, 0, 2), std::invalid_argument);
  EXPECT_THROW(SampleGrid(1, 0, 0, 1, 0, 2, 2), std::invalid_argument);
  const SampleGrid grid(0, 1, 0, 1, 0, 2, 2);
  EXPECT_THROW(grid.point(2, 0), std::out_of_range);
}

TEST(Grid, PointsVectorMatchesIndexing) {
  const SampleGrid grid(0, 3, 0, 2, 1, 3, 2);
  const auto points = grid.points();
  ASSERT_EQ(points.size(), grid.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i], grid.point(i));
  }
}

// --- Mesh / BVH ---------------------------------------------------------------

TriangleMesh make_random_soup(std::size_t count, util::Rng& rng) {
  TriangleMesh mesh;
  for (std::size_t i = 0; i < count; ++i) {
    const Vec3 base{rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)};
    const Vec3 e1{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    const Vec3 e2{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    mesh.add_triangle({base, base + e1, base + e2, static_cast<int>(i % 3)});
  }
  mesh.build_index();
  return mesh;
}

/// Brute-force closest hit for property checking.
Hit brute_force_hit(const TriangleMesh& mesh, const Ray& ray) {
  Hit best;
  for (std::size_t i = 0; i < mesh.triangle_count(); ++i) {
    const Triangle& tri = mesh.triangle(i);
    if (const auto t = tri.intersect(ray, kRayEpsilon, best.t)) {
      best.t = *t;
      best.point = ray.at(*t);
      Vec3 n = tri.geometric_normal();
      if (n.dot(ray.direction) > 0.0) n = -n;
      best.normal = n;
      best.triangle_index = static_cast<int>(i);
      best.material_id = tri.material_id;
    }
  }
  return best;
}

TEST(Bvh, MatchesBruteForceClosestHit) {
  util::Rng rng(101);
  const TriangleMesh mesh = make_random_soup(200, rng);
  int hits = 0;
  for (int i = 0; i < 500; ++i) {
    Vec3 dir{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (dir.norm() < 1e-6) continue;
    const Ray ray{{rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8)},
                  dir.normalized()};
    const Hit fast = mesh.closest_hit(ray);
    const Hit slow = brute_force_hit(mesh, ray);
    ASSERT_EQ(fast.valid(), slow.valid()) << "ray " << i;
    if (fast.valid()) {
      ++hits;
      EXPECT_NEAR(fast.t, slow.t, 1e-9) << "ray " << i;
      EXPECT_EQ(fast.triangle_index, slow.triangle_index) << "ray " << i;
    }
  }
  EXPECT_GT(hits, 25);  // the soup is dense enough that many rays hit
}

TEST(Bvh, OccludedAgreesWithClosestHit) {
  util::Rng rng(202);
  const TriangleMesh mesh = make_random_soup(150, rng);
  for (int i = 0; i < 300; ++i) {
    Vec3 dir{rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1)};
    if (dir.norm() < 1e-6) continue;
    const Ray ray{{rng.uniform(-8, 8), rng.uniform(-8, 8), rng.uniform(-8, 8)},
                  dir.normalized()};
    const bool occluded = mesh.occluded(ray, kRayEpsilon, 6.0);
    const Hit hit = mesh.closest_hit(ray, kRayEpsilon, 6.0);
    EXPECT_EQ(occluded, hit.valid()) << "ray " << i;
  }
}

/// Brute-force all_hits_on_segment: every triangle tested, hits sorted by
/// (t, triangle index), coincident same-material hits kept once (the
/// lowest index), as the mesh documents.
std::vector<Hit> brute_force_segment_hits(const TriangleMesh& mesh,
                                          const Vec3& from, const Vec3& to) {
  const Vec3 delta = to - from;
  const double length = delta.norm();
  const Ray ray{from, delta / length};
  std::vector<Hit> hits;
  for (std::size_t i = 0; i < mesh.triangle_count(); ++i) {
    const Triangle& tri = mesh.triangle(i);
    if (const auto t = tri.intersect(ray, kRayEpsilon, length - kRayEpsilon)) {
      Hit hit;
      hit.t = *t;
      hit.triangle_index = static_cast<int>(i);
      hit.material_id = tri.material_id;
      hits.push_back(hit);
    }
  }
  std::sort(hits.begin(), hits.end(), [](const Hit& a, const Hit& b) {
    return a.t != b.t ? a.t < b.t : a.triangle_index < b.triangle_index;
  });
  std::vector<Hit> kept;
  double anchor_t = 0.0;
  for (const Hit& hit : hits) {
    if (!kept.empty() && std::abs(hit.t - anchor_t) < 1e-9 &&
        hit.material_id == kept.back().material_id) {
      continue;  // sorted by index within equal t, so the kept one is lower
    }
    kept.push_back(hit);
    anchor_t = hit.t;
  }
  return kept;
}

TEST(Bvh, RefitAfterMoveMatchesBruteForce) {
  util::Rng rng(303);
  TriangleMesh mesh = make_random_soup(120, rng);
  mesh.add_box({-0.5, -0.5, -0.5}, {0.5, 0.5, 0.5}, 7);
  const std::size_t box = mesh.add_box({2.0, 2.0, 2.0}, {2.5, 3.0, 3.5}, 8);
  mesh.build_index();
  int box_hits = 0;
  for (int move = 0; move < 40; ++move) {
    const Vec3 lo{rng.uniform(-5, 4), rng.uniform(-5, 4), rng.uniform(-5, 4)};
    const Vec3 size{rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5),
                    rng.uniform(0.2, 1.5)};
    mesh.move_box(box, lo, lo + size);
    ASSERT_TRUE(mesh.index_built());  // refit, not invalidated

    TriangleMesh fresh;
    for (const Triangle& tri : mesh.triangles()) fresh.add_triangle(tri);
    fresh.build_index();
    for (int i = 0; i < 60; ++i) {
      // Half the segments aim through the moved box.
      const Vec3 from{rng.uniform(-8, 8), rng.uniform(-8, 8),
                      rng.uniform(-8, 8)};
      const Vec3 to = i % 2 == 0
                          ? Vec3{rng.uniform(-8, 8), rng.uniform(-8, 8),
                                 rng.uniform(-8, 8)}
                          : from + (lo + size * 0.5 - from) * 2.0;
      const auto refit = mesh.all_hits_on_segment(from, to);
      const auto rebuilt = fresh.all_hits_on_segment(from, to);
      const auto brute = brute_force_segment_hits(mesh, from, to);
      ASSERT_EQ(refit.size(), brute.size()) << "move " << move << " seg " << i;
      ASSERT_EQ(refit.size(), rebuilt.size())
          << "move " << move << " seg " << i;
      for (std::size_t h = 0; h < refit.size(); ++h) {
        EXPECT_EQ(refit[h].t, brute[h].t);
        EXPECT_EQ(refit[h].triangle_index, brute[h].triangle_index);
        EXPECT_EQ(refit[h].t, rebuilt[h].t);
        EXPECT_EQ(refit[h].triangle_index, rebuilt[h].triangle_index);
        EXPECT_EQ(refit[h].normal, rebuilt[h].normal);
        box_hits += refit[h].material_id == 8;
      }
    }
  }
  EXPECT_GT(box_hits, 40);  // the moved box is genuinely in the queries
}

TEST(Mesh, SegmentBlockedByWall) {
  TriangleMesh mesh;
  mesh.add_quad({1, -1, -1}, {1, 1, -1}, {1, 1, 1}, {1, -1, 1}, 0);
  mesh.build_index();
  EXPECT_TRUE(mesh.segment_blocked({0, 0, 0}, {2, 0, 0}));
  EXPECT_FALSE(mesh.segment_blocked({0, 0, 0}, {0.9, 0, 0}));
  EXPECT_FALSE(mesh.segment_blocked({0, 2, 0}, {2, 2, 0}));  // misses the quad
}

TEST(Mesh, AllHitsOnSegmentSortedByDistance) {
  TriangleMesh mesh;
  mesh.add_quad({1, -1, -1}, {1, 1, -1}, {1, 1, 1}, {1, -1, 1}, 0);
  mesh.add_quad({2, -1, -1}, {2, 1, -1}, {2, 1, 1}, {2, -1, 1}, 1);
  mesh.add_quad({3, -1, -1}, {3, 1, -1}, {3, 1, 1}, {3, -1, 1}, 2);
  mesh.build_index();
  const auto hits = mesh.all_hits_on_segment({0, 0, 0}, {4, 0, 0});
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0].material_id, 0);
  EXPECT_EQ(hits[1].material_id, 1);
  EXPECT_EQ(hits[2].material_id, 2);
  EXPECT_LT(hits[0].t, hits[1].t);
  EXPECT_LT(hits[1].t, hits[2].t);
}

TEST(Mesh, BoxHasTwelveTriangles) {
  TriangleMesh mesh;
  mesh.add_box({0, 0, 0}, {1, 1, 1}, 0);
  EXPECT_EQ(mesh.triangle_count(), 12u);
  mesh.build_index();
  // A segment through the box crosses two faces.
  const auto hits = mesh.all_hits_on_segment({-1, 0.5, 0.5}, {2, 0.5, 0.5});
  EXPECT_EQ(hits.size(), 2u);
}

TEST(Mesh, QueriesThrowWithoutIndex) {
  TriangleMesh mesh;
  mesh.add_box({0, 0, 0}, {1, 1, 1}, 0);
  const Ray ray{{-1, 0.5, 0.5}, {1, 0, 0}};
  EXPECT_THROW(mesh.closest_hit(ray), std::logic_error);
  mesh.build_index();
  EXPECT_TRUE(mesh.closest_hit(ray).valid());
  // Adding geometry invalidates the index.
  mesh.add_box({5, 5, 5}, {6, 6, 6}, 0);
  EXPECT_THROW(mesh.closest_hit(ray), std::logic_error);
}

TEST(Mesh, EmptyMeshNeverHits) {
  TriangleMesh mesh;
  mesh.build_index();
  const Ray ray{{0, 0, 0}, {1, 0, 0}};
  EXPECT_FALSE(mesh.closest_hit(ray).valid());
  EXPECT_FALSE(mesh.occluded(ray, kRayEpsilon, 100.0));
}

TEST(Mesh, BoundsCoverAllTriangles) {
  TriangleMesh mesh;
  mesh.add_box({-1, -2, -3}, {4, 5, 6}, 0);
  const Aabb box = mesh.bounds();
  EXPECT_EQ(box.lo, Vec3(-1, -2, -3));
  EXPECT_EQ(box.hi, Vec3(4, 5, 6));
}

}  // namespace
}  // namespace surfos::geom
