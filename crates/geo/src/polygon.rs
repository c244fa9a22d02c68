//! Simple polygons: point-in-polygon, area, and rectangle clipping.

use crate::{Point, Rect, EPSILON};

/// A simple (non-self-intersecting) polygon given by its vertex ring.
///
/// The ring may be listed in either winding order; the constructor does not
/// close the ring (the edge from the last vertex back to the first is
/// implicit). Used for the `WITHIN Polygon(<lat,long>)` query regions of the
/// SensorMap dialect.
#[derive(Debug, Clone, PartialEq)]
pub struct Polygon {
    vertices: Vec<Point>,
}

impl Polygon {
    /// Builds a polygon from at least three vertices.
    ///
    /// # Panics
    /// Panics when fewer than three vertices are supplied.
    pub fn new(vertices: Vec<Point>) -> Self {
        assert!(
            vertices.len() >= 3,
            "polygon needs at least 3 vertices, got {}",
            vertices.len()
        );
        Polygon { vertices }
    }

    /// The vertex ring.
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// Minimum bounding rectangle of the polygon.
    pub fn bounding_rect(&self) -> Rect {
        Rect::bounding(&self.vertices).expect("polygon has >= 3 vertices")
    }

    /// Signed area via the shoelace formula (positive for counter-clockwise
    /// rings).
    pub fn signed_area(&self) -> f64 {
        let v = &self.vertices;
        let n = v.len();
        let mut acc = 0.0;
        for i in 0..n {
            let j = (i + 1) % n;
            acc += v[i].x * v[j].y - v[j].x * v[i].y;
        }
        acc * 0.5
    }

    /// Absolute area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Even–odd point-in-polygon test. Points exactly on an edge may land on
    /// either side; query regions in the portal are large relative to `f64`
    /// noise so this is immaterial in practice.
    pub fn contains_point(&self, p: &Point) -> bool {
        let v = &self.vertices;
        let n = v.len();
        let mut inside = false;
        let mut j = n - 1;
        for i in 0..n {
            let (vi, vj) = (v[i], v[j]);
            if ((vi.y > p.y) != (vj.y > p.y))
                && (p.x < (vj.x - vi.x) * (p.y - vi.y) / (vj.y - vi.y) + vi.x)
            {
                inside = !inside;
            }
            j = i;
        }
        inside
    }

    /// Clips the polygon against an axis-aligned rectangle using
    /// Sutherland–Hodgman (valid because rectangles are convex), returning the
    /// clipped polygon or `None` when the intersection is empty or degenerate.
    pub fn clip_to_rect(&self, clip: &Rect) -> Option<Polygon> {
        #[derive(Clone, Copy)]
        enum Edge {
            Left(f64),
            Right(f64),
            Bottom(f64),
            Top(f64),
        }
        fn inside(e: Edge, p: &Point) -> bool {
            match e {
                Edge::Left(x) => p.x >= x,
                Edge::Right(x) => p.x <= x,
                Edge::Bottom(y) => p.y >= y,
                Edge::Top(y) => p.y <= y,
            }
        }
        fn intersect(e: Edge, a: &Point, b: &Point) -> Point {
            match e {
                Edge::Left(x) | Edge::Right(x) => {
                    let t = (x - a.x) / (b.x - a.x);
                    Point::new(x, a.y + t * (b.y - a.y))
                }
                Edge::Bottom(y) | Edge::Top(y) => {
                    let t = (y - a.y) / (b.y - a.y);
                    Point::new(a.x + t * (b.x - a.x), y)
                }
            }
        }

        let edges = [
            Edge::Left(clip.min.x),
            Edge::Right(clip.max.x),
            Edge::Bottom(clip.min.y),
            Edge::Top(clip.max.y),
        ];
        let mut ring = self.vertices.clone();
        for e in edges {
            if ring.is_empty() {
                break;
            }
            let mut out = Vec::with_capacity(ring.len() + 4);
            let n = ring.len();
            for i in 0..n {
                let cur = ring[i];
                let prev = ring[(i + n - 1) % n];
                let cur_in = inside(e, &cur);
                let prev_in = inside(e, &prev);
                if cur_in {
                    if !prev_in {
                        out.push(intersect(e, &prev, &cur));
                    }
                    out.push(cur);
                } else if prev_in {
                    out.push(intersect(e, &prev, &cur));
                }
            }
            ring = out;
        }
        if ring.len() < 3 {
            return None;
        }
        let poly = Polygon::new(ring);
        if poly.area() <= EPSILON {
            None
        } else {
            Some(poly)
        }
    }

    /// Area of the intersection between this polygon and `rect`.
    pub fn intersection_area(&self, rect: &Rect) -> f64 {
        self.clip_to_rect(rect).map_or(0.0, |p| p.area())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A rectangle as a polygon (counter-clockwise ring).
    fn from_rect(r: &Rect) -> Polygon {
        Polygon::new(vec![
            r.min,
            Point::new(r.max.x, r.min.y),
            r.max,
            Point::new(r.min.x, r.max.y),
        ])
    }

    fn unit_square() -> Polygon {
        from_rect(&Rect::from_coords(0.0, 0.0, 1.0, 1.0))
    }

    fn triangle() -> Polygon {
        Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(4.0, 0.0),
            Point::new(0.0, 4.0),
        ])
    }

    #[test]
    #[should_panic(expected = "at least 3 vertices")]
    fn rejects_degenerate_ring() {
        Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
    }

    #[test]
    fn shoelace_area() {
        assert_eq!(unit_square().area(), 1.0);
        assert_eq!(triangle().area(), 8.0);
    }

    #[test]
    fn signed_area_sign_tracks_winding() {
        let ccw = unit_square();
        let cw = Polygon::new(ccw.vertices().iter().rev().copied().collect());
        assert!(ccw.signed_area() > 0.0);
        assert!(cw.signed_area() < 0.0);
        assert_eq!(ccw.area(), cw.area());
    }

    #[test]
    fn point_in_polygon() {
        let t = triangle();
        assert!(t.contains_point(&Point::new(1.0, 1.0)));
        assert!(!t.contains_point(&Point::new(3.0, 3.0)));
        assert!(!t.contains_point(&Point::new(-0.1, 0.5)));
    }

    #[test]
    fn bounding_rect_covers_vertices() {
        let t = triangle();
        assert_eq!(t.bounding_rect(), Rect::from_coords(0.0, 0.0, 4.0, 4.0));
    }

    #[test]
    fn clip_fully_inside_returns_same_area() {
        let t = triangle();
        let clip = Rect::from_coords(-1.0, -1.0, 5.0, 5.0);
        let clipped = t.clip_to_rect(&clip).unwrap();
        assert!((clipped.area() - t.area()).abs() < 1e-9);
    }

    #[test]
    fn clip_disjoint_returns_none() {
        let t = triangle();
        let clip = Rect::from_coords(10.0, 10.0, 12.0, 12.0);
        assert!(t.clip_to_rect(&clip).is_none());
    }

    #[test]
    fn clip_half_square() {
        let s = unit_square();
        let clip = Rect::from_coords(0.5, 0.0, 2.0, 1.0);
        let clipped = s.clip_to_rect(&clip).unwrap();
        assert!((clipped.area() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn clip_triangle_corner() {
        // Clip the right-angle triangle to the unit square at its corner:
        // the square cuts a region of area 1.0 minus the tiny hypotenuse
        // sliver... actually for this triangle the unit square is entirely
        // below the hypotenuse (x + y <= 4), so the intersection is the full
        // square.
        let t = triangle();
        let clip = Rect::from_coords(0.0, 0.0, 1.0, 1.0);
        assert!((t.intersection_area(&clip) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn clip_hypotenuse_region() {
        // Clip around the hypotenuse mid-region: square [1,3]x[1,3] against
        // x + y <= 4 keeps exactly half the square (a triangle of area 2).
        let t = triangle();
        let clip = Rect::from_coords(1.0, 1.0, 3.0, 3.0);
        assert!((t.intersection_area(&clip) - 2.0).abs() < 1e-9);
    }

    proptest! {
        #[test]
        fn clipped_area_never_exceeds_either(cx in -5.0..5.0f64, cy in -5.0..5.0f64,
                                             w in 0.1..6.0f64, h in 0.1..6.0f64) {
            let t = triangle();
            let clip = Rect::from_coords(cx, cy, cx + w, cy + h);
            let ia = t.intersection_area(&clip);
            prop_assert!(ia <= t.area() + 1e-9);
            prop_assert!(ia <= clip.area() + 1e-9);
            prop_assert!(ia >= 0.0);
        }

        #[test]
        fn clip_agrees_with_rect_intersection_for_squares(
            ax in -5.0..5.0f64, ay in -5.0..5.0f64, aw in 0.1..4.0f64, ah in 0.1..4.0f64,
            bx in -5.0..5.0f64, by in -5.0..5.0f64, bw in 0.1..4.0f64, bh in 0.1..4.0f64) {
            let a = Rect::from_coords(ax, ay, ax + aw, ay + ah);
            let b = Rect::from_coords(bx, by, bx + bw, by + bh);
            let via_poly = from_rect(&a).intersection_area(&b);
            let via_rect = a.intersection(&b).map_or(0.0, |r| r.area());
            prop_assert!((via_poly - via_rect).abs() < 1e-9);
        }
    }
}
