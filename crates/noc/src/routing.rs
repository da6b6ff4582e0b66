//! Deterministic XY dimension-ordered routing.

use crate::topology::{Coord, DirectedLink, Mesh};

/// Computes the XY route from `src` to `dst`: first along x, then along y.
///
/// Deterministic, minimal, and deadlock-free on a mesh — the standard
/// baseline routing for interposer NoCs (cf. the DeFT paper \[40\] this
/// paper's electrical baseline builds on).
///
/// # Panics
///
/// Panics if either endpoint is outside the mesh.
///
/// # Examples
///
/// ```
/// use lumos_noc::routing::xy_route;
/// use lumos_noc::topology::{Coord, Mesh};
///
/// let mesh = Mesh::new(3, 3);
/// let path = xy_route(&mesh, Coord::new(0, 0), Coord::new(2, 1));
/// assert_eq!(path.len(), 3); // 2 hops in x, 1 in y
/// assert_eq!(path[0].from, Coord::new(0, 0));
/// assert_eq!(path[2].to, Coord::new(2, 1));
/// ```
pub fn xy_route(mesh: &Mesh, src: Coord, dst: Coord) -> Vec<DirectedLink> {
    xy_hops(mesh, src, dst).collect()
}

/// The XY route from `src` to `dst` as a non-allocating iterator over
/// its links, in path order — [`xy_route`] without the `Vec`.
///
/// # Panics
///
/// Panics if either endpoint is outside the mesh.
///
/// # Examples
///
/// ```
/// use lumos_noc::routing::{xy_hops, xy_route};
/// use lumos_noc::topology::{Coord, Mesh};
///
/// let mesh = Mesh::new(3, 3);
/// let hops = xy_hops(&mesh, Coord::new(2, 0), Coord::new(0, 2));
/// assert_eq!(hops.len(), 4);
/// assert!(hops.eq(xy_route(&mesh, Coord::new(2, 0), Coord::new(0, 2))));
/// ```
pub fn xy_hops(mesh: &Mesh, src: Coord, dst: Coord) -> XyHops {
    assert!(mesh.contains(src), "source {src} outside mesh");
    assert!(mesh.contains(dst), "destination {dst} outside mesh");
    XyHops { cur: src, dst }
}

/// Iterator over the links of an XY route ([`xy_hops`]): along x
/// first, then along y.
#[derive(Debug, Clone)]
pub struct XyHops {
    cur: Coord,
    dst: Coord,
}

impl Iterator for XyHops {
    type Item = DirectedLink;

    fn next(&mut self) -> Option<DirectedLink> {
        let (cur, dst) = (self.cur, self.dst);
        let next = if cur.x != dst.x {
            let x = if dst.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            Coord::new(x, cur.y)
        } else if cur.y != dst.y {
            let y = if dst.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            Coord::new(cur.x, y)
        } else {
            return None;
        };
        self.cur = next;
        Some(DirectedLink {
            from: cur,
            to: next,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.cur.manhattan(self.dst) as usize;
        (n, Some(n))
    }
}

impl ExactSizeIterator for XyHops {}

/// Number of router traversals on the XY route (hops + 1 routers, but the
/// convention here counts intermediate + destination routers = hops).
pub fn hop_count(src: Coord, dst: Coord) -> u32 {
    src.manhattan(dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_length_is_manhattan() {
        let mesh = Mesh::new(5, 5);
        for (sx, sy, dx, dy) in [(0, 0, 4, 4), (2, 3, 2, 3), (4, 0, 0, 4), (1, 2, 3, 0)] {
            let s = Coord::new(sx, sy);
            let d = Coord::new(dx, dy);
            assert_eq!(xy_route(&mesh, s, d).len() as u32, s.manhattan(d));
        }
    }

    #[test]
    fn path_is_contiguous_and_x_first() {
        let mesh = Mesh::new(4, 4);
        let path = xy_route(&mesh, Coord::new(0, 3), Coord::new(3, 0));
        for pair in path.windows(2) {
            assert_eq!(pair[0].to, pair[1].from);
        }
        // First three hops move along x.
        assert!(path[..3].iter().all(|l| l.from.y == 3 && l.to.y == 3));
        // Remaining hops move along y.
        assert!(path[3..].iter().all(|l| l.from.x == 3 && l.to.x == 3));
    }

    #[test]
    fn self_route_is_empty() {
        let mesh = Mesh::new(2, 2);
        assert!(xy_route(&mesh, Coord::new(1, 1), Coord::new(1, 1)).is_empty());
        assert_eq!(hop_count(Coord::new(1, 1), Coord::new(1, 1)), 0);
    }

    #[test]
    fn deterministic() {
        let mesh = Mesh::new(6, 6);
        let a = xy_route(&mesh, Coord::new(0, 5), Coord::new(5, 0));
        let b = xy_route(&mesh, Coord::new(0, 5), Coord::new(5, 0));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn bounds_checked() {
        let mesh = Mesh::new(2, 2);
        let _ = xy_route(&mesh, Coord::new(0, 0), Coord::new(9, 9));
    }
}
