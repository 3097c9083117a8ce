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

// SphereLinks marks the solid cells of a sphere (center cx,cy,cz, radius
// r, in cell units) and records the exact link intersection fractions for
// every fluid cell adjacent to it — the Mei et al. representation of a
// curved boundary on the lattice.
func (l *Lattice) SphereLinks(cx, cy, cz, r float32) {
	inside := func(x, y, z int) bool {
		dx := float32(x) - cx
		dy := float32(y) - cy
		dz := float32(z) - cz
		return dx*dx+dy*dy+dz*dz <= r*r
	}
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if inside(x, y, z) {
					l.SetSolid(x, y, z, true)
				}
			}
		}
	}
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			for x := 0; x < l.NX; x++ {
				if inside(x, y, z) {
					continue
				}
				for i := 1; i < Q; i++ {
					nx, ny, nz := x+C[i][0], y+C[i][1], z+C[i][2]
					if nx < 0 || nx >= l.NX || ny < 0 || ny >= l.NY || nz < 0 || nz >= l.NZ {
						continue
					}
					if !inside(nx, ny, nz) {
						continue
					}
					// Solve |p + t*c - center| = r for t in (0, 1].
					px := float32(x) - cx
					py := float32(y) - cy
					pz := float32(z) - cz
					dx := float32(C[i][0])
					dy := float32(C[i][1])
					dz := float32(C[i][2])
					a := dx*dx + dy*dy + dz*dz
					b := 2 * (px*dx + py*dy + pz*dz)
					cc := px*px + py*py + pz*pz - r*r
					disc := b*b - 4*a*cc
					if disc <= 0 {
						continue
					}
					t := (-b - sqrt32(disc)) / (2 * a)
					if t > 0 && t <= 1 {
						l.SetLinkQ(x, y, z, i, t)
					}
				}
			}
		}
	}
}

func sqrt32(x float32) float32 {
	return float32(math.Sqrt(float64(x)))
}
