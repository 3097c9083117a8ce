package lbm

import "math"

// Curved-boundary support. Section 4.1 of the paper: "Complex shaped
// boundaries such as curves and porous media can be represented by the
// location of the intersection of the boundary surfaces with the lattice
// links" (Mei, Shyy, Yu, Luo — reference [24]). This file implements the
// linear interpolated bounce-back of Bouzidi et al., which uses that
// intersection location: for a link crossing the wall at fraction q of
// its length (measured from the fluid cell), the reflected population is
// interpolated between neighboring post-collision values instead of the
// half-way mirror, making the effective wall position sub-cell accurate.
//
// q = 1/2 reduces exactly to the plain half-way bounce-back; q is stored
// sparsely because only boundary cells carry intersections. The GPU
// backend does not implement interpolated links (the paper stored
// intersection positions in boundary textures; here the feature is
// CPU-side), so lbmgpu rejects lattices that use it.

// linkQ stores the per-direction wall-intersection fractions of one cell;
// entries are 0 where the link does not cross a resolved wall.
type linkQ [Q]float32

// SetLinkQ records that the link leaving interior cell (x, y, z) in
// direction dir crosses the boundary surface at fraction q of the link
// length (0 < q <= 1, measured from the cell center). The neighbor cell
// in that direction must be solid for the intersection to take effect.
func (l *Lattice) SetLinkQ(x, y, z, dir int, q float32) {
	if q <= 0 || q > 1 {
		panic("lbm: link intersection fraction must be in (0, 1]")
	}
	if dir <= 0 || dir >= Q {
		panic("lbm: invalid link direction")
	}
	if l.LinkQ == nil {
		l.LinkQ = make(map[int]*linkQ)
	}
	c := l.Idx(x, y, z)
	lq := l.LinkQ[c]
	if lq == nil {
		lq = &linkQ{}
		l.LinkQ[c] = lq
	}
	lq[dir] = q
}

// HasCurvedBoundaries reports whether any interpolated links are set.
func (l *Lattice) HasCurvedBoundaries() bool { return len(l.LinkQ) > 0 }

// curvedBounce computes the interpolated bounce-back value for the
// returning direction i at cell c (the wall lies along o = Opp[i], which
// crossed the surface at fraction q). Implements the two branches of the
// Bouzidi linear scheme; the upstream fluid neighbor is required for
// q < 1/2 and plain bounce-back is used when it is unavailable (solid).
func (l *Lattice) curvedBounce(i, o, c int, q float32) float32 {
	if q < 0.5 {
		up := c + l.linkOffset(i) // one cell away from the wall
		if !l.Solid[up] {
			return 2*q*l.Post[o][c] + (1-2*q)*l.Post[o][up]
		}
		// No upstream fluid neighbor: degrade to half-way bounce-back.
		return l.Post[o][c]
	}
	inv := 1 / (2 * q)
	return inv*l.Post[o][c] + (2*q-1)*inv*l.Post[i][c]
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
