#include "spatial/geometry.h"

#include <algorithm>
#include <cmath>

namespace seve {

double DistanceSqPointSegment(Vec2 p, const Segment& s) {
  const Vec2 ab = s.b - s.a;
  const double len_sq = ab.LengthSq();
  if (len_sq == 0.0) return DistanceSq(p, s.a);
  const double t = std::clamp((p - s.a).Dot(ab) / len_sq, 0.0, 1.0);
  return DistanceSq(p, s.a + ab * t);
}

double DistancePointSegment(Vec2 p, const Segment& s) {
  return std::sqrt(DistanceSqPointSegment(p, s));
}

bool CircleIntersectsSegment(Vec2 center, double radius, const Segment& s) {
  return DistanceSqPointSegment(center, s) <= radius * radius;
}

std::optional<double> SegmentIntersectionParam(const Segment& p,
                                               const Segment& q) {
  const Vec2 r = p.b - p.a;
  const Vec2 s = q.b - q.a;
  const double denom = r.Cross(s);
  const Vec2 qp = q.a - p.a;
  if (denom == 0.0) {
    // Parallel. Treat collinear overlap as a touch at the nearest endpoint.
    if (qp.Cross(r) != 0.0) return std::nullopt;
    const double rr = r.LengthSq();
    if (rr == 0.0) return std::nullopt;
    double t0 = qp.Dot(r) / rr;
    double t1 = (q.b - p.a).Dot(r) / rr;
    if (t0 > t1) std::swap(t0, t1);
    if (t1 < 0.0 || t0 > 1.0) return std::nullopt;
    return std::clamp(t0, 0.0, 1.0);
  }
  const double t = qp.Cross(s) / denom;
  const double u = qp.Cross(r) / denom;
  if (t < 0.0 || t > 1.0 || u < 0.0 || u > 1.0) return std::nullopt;
  return t;
}

std::optional<double> MovingCircleSegmentHit(Vec2 start, Vec2 dir,
                                             double max_dist, double radius,
                                             const Segment& s) {
  // Conservative sweep: sample the swept path; exact enough for the
  // simulation's short per-tick steps and keeps the kernel branch-light.
  const double r_sq = radius * radius;

  // If we already touch, the hit distance is zero.
  if (DistanceSqPointSegment(start, s) <= r_sq) return 0.0;

  // Root-find along the path: distance(start + t*dir, s) == radius.
  // The distance function along a line against a segment is piecewise
  // quadratic and unimodal per piece; bisection on fine brackets is robust.
  const int kSteps = 16;
  double prev_t = 0.0;
  for (int i = 1; i <= kSteps; ++i) {
    const double t = max_dist * static_cast<double>(i) / kSteps;
    const double d = DistanceSqPointSegment(start + dir * t, s);
    if (d <= r_sq) {
      // Bisect [prev_t, t] to refine the contact point.
      double lo = prev_t, hi = t;
      for (int it = 0; it < 24; ++it) {
        const double mid = 0.5 * (lo + hi);
        if (DistanceSqPointSegment(start + dir * mid, s) <= r_sq) {
          hi = mid;
        } else {
          lo = mid;
        }
      }
      return hi;
    }
    prev_t = t;
  }
  return std::nullopt;
}

std::optional<double> MovingCircleCircleHit(Vec2 start, Vec2 dir,
                                            double max_dist, double radius,
                                            Vec2 center) {
  // Solve |start + t*dir - center| = radius for smallest t in [0,max_dist].
  const Vec2 m = start - center;
  const double b = m.Dot(dir);
  const double c = m.LengthSq() - radius * radius;
  if (c <= 0.0) return 0.0;  // already overlapping
  if (b > 0.0) return std::nullopt;  // moving away
  const double disc = b * b - c;
  if (disc < 0.0) return std::nullopt;
  const double t = -b - std::sqrt(disc);
  if (t < 0.0 || t > max_dist) return std::nullopt;
  return t;
}

}  // namespace seve
