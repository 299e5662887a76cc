#ifndef QSE_DISTANCE_POINT_SET_H_
#define QSE_DISTANCE_POINT_SET_H_

#include <cstddef>
#include <vector>

namespace qse {

/// A 2D point.
struct Point2 {
  double x = 0.0;
  double y = 0.0;

  friend Point2 operator+(Point2 a, Point2 b) { return {a.x + b.x, a.y + b.y}; }
  friend Point2 operator-(Point2 a, Point2 b) { return {a.x - b.x, a.y - b.y}; }
  friend Point2 operator*(double s, Point2 p) { return {s * p.x, s * p.y}; }
};

/// Euclidean norm helpers.
double Norm(Point2 p);
double PointDistance(Point2 a, Point2 b);

/// An unordered 2D point set — the object representation for shape-like
/// data (our MNIST substitute samples each digit as a point set, exactly
/// the input representation that shape context [4] consumes).
struct PointSet {
  std::vector<Point2> points;

  size_t size() const { return points.size(); }
  bool empty() const { return points.empty(); }

  Point2 Centroid() const;

  /// Mean pairwise Euclidean distance; the scale normalizer used by shape
  /// context descriptors.  Returns 0 for sets with fewer than 2 points.
  double MeanPairwiseDistance() const;

  /// Translates so the centroid is at the origin.
  void CenterAtOrigin();
};

}  // namespace qse

#endif  // QSE_DISTANCE_POINT_SET_H_
