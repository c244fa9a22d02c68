//! Query regions: the sum type over rectangles and polygons.

use crate::{Circle, Point, Polygon, Rect, EPSILON};

/// A query region of interest — a map viewport ([`Rect`]), a user-drawn
/// [`Polygon`] (the SensorMap `WITHIN Polygon(...)` clause), or a
/// [`Circle`] ("within d miles of here").
#[derive(Debug, Clone, PartialEq)]
pub enum Region {
    /// Rectangular viewport.
    Rect(Rect),
    /// Polygonal region of interest.
    Polygon(Polygon),
    /// Disc around a point.
    Circle(Circle),
}

impl Region {
    /// Minimum bounding rectangle of the region.
    pub fn bounding_rect(&self) -> Rect {
        match self {
            Region::Rect(r) => *r,
            Region::Polygon(p) => p.bounding_rect(),
            Region::Circle(c) => c.bounding_rect(),
        }
    }

    /// `true` when `p` lies within the region.
    pub fn contains_point(&self, p: &Point) -> bool {
        match self {
            Region::Rect(r) => r.contains_point(p),
            Region::Polygon(poly) => poly.contains_point(p),
            Region::Circle(c) => c.contains_point(p),
        }
    }

    /// `true` when `rect` lies entirely inside the region.
    ///
    /// For polygonal regions this is decided by clipping: `rect` is contained
    /// iff the intersection area equals `rect`'s area (or, for degenerate
    /// rects, iff the representative point is inside).
    pub fn contains_rect(&self, rect: &Rect) -> bool {
        match self {
            Region::Rect(r) => r.contains_rect(rect),
            Region::Circle(c) => c.contains_rect(rect),
            Region::Polygon(poly) => {
                if rect.area() <= EPSILON {
                    poly.contains_point(&rect.center())
                } else {
                    (poly.intersection_area(rect) - rect.area()).abs() <= EPSILON * rect.area()
                }
            }
        }
    }

    /// `true` when the region and `rect` share any point.
    pub fn intersects_rect(&self, rect: &Rect) -> bool {
        match self {
            Region::Rect(r) => r.intersects(rect),
            Region::Circle(c) => c.intersects_rect(rect),
            Region::Polygon(poly) => {
                if !poly.bounding_rect().intersects(rect) {
                    return false;
                }
                if rect.area() <= EPSILON {
                    return poly.contains_point(&rect.center());
                }
                // Positive clipped area, a polygon vertex inside the rect, or
                // a rect corner inside the polygon all witness intersection.
                poly.intersection_area(rect) > 0.0
                    || poly.vertices().iter().any(|v| rect.contains_point(v))
                    || poly.contains_point(&rect.center())
            }
        }
    }

    /// The paper's `Overlap(BB(i), A)`: the fraction of `rect`'s area that
    /// lies within the region. Degenerate rectangles are indicator functions
    /// on their centre point.
    pub fn overlap_fraction(&self, rect: &Rect) -> f64 {
        match self {
            Region::Rect(r) => rect.overlap_fraction(r),
            Region::Circle(c) => c.overlap_fraction(rect),
            Region::Polygon(poly) => {
                let a = rect.area();
                if a <= EPSILON {
                    if poly.contains_point(&rect.center()) {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    (poly.intersection_area(rect) / a).clamp(0.0, 1.0)
                }
            }
        }
    }

    /// Area of the region itself.
    pub fn area(&self) -> f64 {
        match self {
            Region::Rect(r) => r.area(),
            Region::Polygon(p) => p.area(),
            Region::Circle(c) => c.area(),
        }
    }
}

impl From<Rect> for Region {
    fn from(r: Rect) -> Self {
        Region::Rect(r)
    }
}

impl From<Polygon> for Region {
    fn from(p: Polygon) -> Self {
        Region::Polygon(p)
    }
}

impl From<Circle> for Region {
    fn from(c: Circle) -> Self {
        Region::Circle(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tri_region() -> Region {
        Region::Polygon(Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ]))
    }

    #[test]
    fn rect_region_delegates() {
        let r = Region::Rect(Rect::from_coords(0.0, 0.0, 2.0, 2.0));
        assert!(r.contains_point(&Point::new(1.0, 1.0)));
        assert!(r.contains_rect(&Rect::from_coords(0.5, 0.5, 1.5, 1.5)));
        assert!(r.intersects_rect(&Rect::from_coords(1.0, 1.0, 3.0, 3.0)));
        assert_eq!(
            r.overlap_fraction(&Rect::from_coords(1.0, 0.0, 3.0, 2.0)),
            0.5
        );
        assert_eq!(r.area(), 4.0);
    }

    #[test]
    fn polygon_region_containment() {
        let t = tri_region();
        assert!(t.contains_rect(&Rect::from_coords(0.1, 0.1, 1.0, 1.0)));
        assert!(!t.contains_rect(&Rect::from_coords(2.0, 2.0, 3.5, 3.5)));
    }

    #[test]
    fn polygon_region_overlap_fraction() {
        let t = tri_region();
        // Square [1,3]x[1,3] ∩ triangle keeps area 2 of 4.
        let f = t.overlap_fraction(&Rect::from_coords(1.0, 1.0, 3.0, 3.0));
        assert!((f - 0.5).abs() < 1e-9);
    }

    #[test]
    fn polygon_region_point_rect_indicator() {
        let t = tri_region();
        let inside = Rect::point(Point::new(0.5, 0.5));
        let outside = Rect::point(Point::new(3.9, 3.9));
        assert_eq!(t.overlap_fraction(&inside), 1.0);
        assert_eq!(t.overlap_fraction(&outside), 0.0);
        assert!(t.intersects_rect(&inside));
        assert!(!t.intersects_rect(&outside));
    }

    #[test]
    fn polygon_intersects_detects_disjoint_quickly() {
        let t = tri_region();
        assert!(!t.intersects_rect(&Rect::from_coords(10.0, 10.0, 11.0, 11.0)));
    }

    #[test]
    fn circle_region_behaviour() {
        let c = Region::Circle(Circle::new(Point::new(0.0, 0.0), 2.0));
        assert!(c.contains_point(&Point::new(1.0, 1.0)));
        assert!(!c.contains_point(&Point::new(2.0, 2.0)));
        assert!(c.contains_rect(&Rect::from_coords(-1.0, -1.0, 1.0, 1.0)));
        assert!(c.intersects_rect(&Rect::from_coords(1.5, -0.5, 3.0, 0.5)));
        assert!(!c.intersects_rect(&Rect::from_coords(3.0, 3.0, 4.0, 4.0)));
        assert_eq!(c.bounding_rect(), Rect::from_coords(-2.0, -2.0, 2.0, 2.0));
        assert!((c.area() - 4.0 * std::f64::consts::PI).abs() < 1e-9);
        let f = c.overlap_fraction(&Rect::from_coords(-1.0, -1.0, 1.0, 1.0));
        assert_eq!(f, 1.0);
    }

    #[test]
    fn from_impls() {
        let r: Region = Rect::from_coords(0.0, 0.0, 1.0, 1.0).into();
        assert!(matches!(r, Region::Rect(_)));
        let triangle = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
        ];
        let p: Region = Polygon::new(triangle).into();
        assert!(matches!(p, Region::Polygon(_)));
        let c: Region = Circle::new(Point::new(0.0, 0.0), 1.0).into();
        assert!(matches!(c, Region::Circle(_)));
    }
}
