#include "src/distance/point_set.h"

#include <cassert>
#include <cmath>

namespace qse {

double Norm(Point2 p) { return std::sqrt(p.x * p.x + p.y * p.y); }

double PointDistance(Point2 a, Point2 b) { return Norm(a - b); }

Point2 PointSet::Centroid() const {
  assert(!points.empty());
  Point2 c;
  for (const Point2& p : points) {
    c.x += p.x;
    c.y += p.y;
  }
  c.x /= static_cast<double>(points.size());
  c.y /= static_cast<double>(points.size());
  return c;
}

double PointSet::MeanPairwiseDistance() const {
  if (points.size() < 2) return 0.0;
  double total = 0.0;
  size_t pairs = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    for (size_t j = i + 1; j < points.size(); ++j) {
      total += PointDistance(points[i], points[j]);
      ++pairs;
    }
  }
  return total / static_cast<double>(pairs);
}

void PointSet::CenterAtOrigin() {
  if (points.empty()) return;
  Point2 c = Centroid();
  for (Point2& p : points) {
    p.x -= c.x;
    p.y -= c.y;
  }
}

}  // namespace qse
