package lbm

import "slices"

// This file implements the two-phase update of the lattice Boltzmann
// method as described in Section 4.1 of the paper: synchronous streaming
// along the lattice links followed by a local collision (BGK or MRT),
// with boundary conditions applied through the ghost shell.
//
// The canonical step order is ghost-fill, stream, collide, with the
// state held *between* steps being the post-collision distributions
// (Post). This ordering is what makes the cluster decomposition and the
// GPU mapping exact: the data exchanged across sub-domain borders, and
// the data held in GPU textures, are always post-collision values — the
// quantities the paper's border streaming (Section 4.3) ships between
// nodes.

// Step advances the lattice by one time step: fill ghosts from the face
// boundary conditions, stream, collide.
func (l *Lattice) Step() { l.StepWithExchange(nil) }

// StepWithExchange is the one step skeleton, serial and parallel. The
// ghost shell is filled dimension by dimension (x, then y including the
// x ghosts, then z including both) so that edge and corner ghosts are
// consistent; after each dimension's boundary-condition planes, a
// non-nil exchange(dim) lets the caller fill that dimension's Ghost
// faces (package cluster's border exchange), which realizes the paper's
// indirect routing of diagonal (second-nearest-neighbor) data through
// axial transfers. Then the lattice streams and collides.
func (l *Lattice) StepWithExchange(exchange func(dim int)) {
	for dim := 0; dim < 3; dim++ {
		l.FillGhostDim(dim)
		if exchange != nil {
			exchange(dim)
		}
	}
	l.Stream()
	l.Collide()
	l.step++
}

// Collide computes post-collision distributions for every interior fluid
// cell, caching per-cell density. Solid interior cells keep their current
// distributions (they are never read except through bounce-back, which
// uses the fluid cell's own post-collision values).
func (l *Lattice) Collide() {
	omega := 1 / l.Tau
	hasForce := l.Force != [3]float32{} || l.ForceField != nil
	// The cell's distributions live in the lattice, not on the stack: a
	// CollisionOp call would move stack arrays to the heap on every call.
	f, post := &l.cell, &l.cellPost
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			base := l.Idx(0, y, z)
			for x, solid := range l.Solid[base : base+l.NX] {
				if solid {
					continue
				}
				c := base + x
				for i := range f {
					f[i] = l.F[i][c]
				}
				rho, ux, uy, uz := momentSums(f)
				inv := float32(1) / rho
				ux *= inv
				uy *= inv
				uz *= inv
				l.Rho[c] = rho

				if l.Collision != nil {
					l.Collision.Collide(f, post, rho, ux, uy, uz)
				} else {
					Feq(post, rho, ux, uy, uz)
					for i := range post {
						post[i] = f[i] - omega*(f[i]-post[i])
					}
				}
				if hasForce {
					a := l.Force
					if l.ForceField != nil {
						a = a.Add(l.ForceField[c])
					}
					if a != [3]float32{} {
						for i := range post {
							ca := cf[i][0]*a[0] + cf[i][1]*a[1] + cf[i][2]*a[2]
							post[i] += 3 * W[i] * rho * ca
						}
					}
				}
				for i := range post {
					l.Post[i][c] = post[i]
				}
			}
		}
	}
}

// FillGhostDim fills the two ghost planes of one dimension (0=x, 1=y,
// 2=z) from their face boundary conditions. Ghost-type faces are left for
// the cluster exchange, which must be interleaved in the same dimension
// order: x planes span the interior only, y planes include the x ghosts,
// z planes include both, so diagonal data propagate through edges in two
// axial hops exactly as in the paper's indirect schedule.
func (l *Lattice) FillGhostDim(dim int) {
	l.fillFace(2*dim, dim)
	l.fillFace(2*dim+1, dim)
}

// fillFace fills one ghost plane. dim is 0, 1, 2 for x, y, z; the sweep
// covers ghost coordinates of lower dimensions to populate edges.
func (l *Lattice) fillFace(face int, dim int) {
	spec := l.Faces[face]
	switch spec.Type {
	case Ghost, Wall, MovingWall:
		// Ghost faces are filled by the cluster exchange; wall faces
		// are realized as solid ghosts during streaming.
		return
	}
	// The ghost plane, its periodic image and its interior neighbor.
	p := l.plane(dim)
	gcoord, wrapcoord, edgecoord := -1, p.n-1, 0
	if face%2 == 1 {
		gcoord, wrapcoord, edgecoord = p.n, 0, p.n-1
	}
	ghost, wrap, edge := p.at(gcoord), p.at(wrapcoord), p.at(edgecoord)

	rho := spec.Rho
	if rho == 0 {
		rho = 1
	}
	var feq, fp, feqSrc, feqOut [Q]float32
	if spec.Type == Inlet {
		Feq(&feq, rho, spec.U[0], spec.U[1], spec.U[2])
	}

	for b := 0; b < p.nb; b++ {
		for a := 0; a < p.na; a++ {
			at := b*p.sb + a*p.sa
			g := ghost + at
			switch spec.Type {
			case Periodic:
				for i := range l.Post {
					l.Post[i][g] = l.Post[i][wrap+at]
				}
				// Periodic geometry: the ghost mirrors the far side's
				// solidity so obstacles wrap correctly.
				l.Solid[g] = l.Solid[wrap+at]
			case Inlet:
				for i := range l.Post {
					l.Post[i][g] = feq[i]
				}
			case Outflow:
				// Pressure outlet: copy the adjacent cell's distributions
				// but re-anchor their density at the outlet value, so mass
				// cannot accumulate against the outflow face. The source
				// in-plane coordinates are clamped to the interior: the
				// y/z sweeps cover ghost columns whose cells hold only the
				// distributions entering the domain (exchange ghosts),
				// which do not define moments.
				src := edge + min(max(b, p.ghostB), p.nb-1-p.ghostB)*p.sb +
					min(max(a, p.ghostA), p.na-1-p.ghostA)*p.sa
				for i := range fp {
					fp[i] = l.Post[i][src]
				}
				rhoSrc, ux, uy, uz := Moments(&fp)
				Feq(&feqSrc, rhoSrc, ux, uy, uz)
				Feq(&feqOut, rho, ux, uy, uz)
				for i := range fp {
					l.Post[i][g] = fp[i] - feqSrc[i] + feqOut[i]
				}
			}
		}
	}
}

// Stream propagates post-collision distributions along the lattice links
// into the current distributions, applying half-way bounce-back at solid
// cells (with the moving-wall momentum correction where a wall velocity
// is present). It goes link by link over x-rows: a row streams from the
// row one link back, by a plain copy when neither holds a solid cell and
// cell by cell otherwise.
func (l *Lattice) Stream() {
	// Summarized afresh on every call: Solid, like Faces, WallU and
	// LinkQ, is the caller's to edit between steps, and nothing derived
	// from them is kept.
	rows := l.solidRows()
	for i := 0; i < Q; i++ {
		dst, src := l.F[i], l.Post[i]
		off := l.linkOffset(i)
		rowOff := C[i][2]*l.sy + C[i][1]
		for z := 0; z < l.NZ; z++ {
			for y := 0; y < l.NY; y++ {
				row := (z+1)*l.sy + y + 1
				lo := row*l.sx + 1
				hi := lo + l.NX
				if !rows[row] && !rows[row-rowOff] {
					copy(dst[lo:hi], src[lo-off:hi-off])
					continue
				}
				for c := lo; c < hi; c++ {
					switch {
					case l.Solid[c]:
					case l.Solid[c-off]:
						dst[c] = l.bounce(i, c, c-off)
					default:
						dst[c] = src[c-off]
					}
				}
			}
		}
	}
}

// solidRows reports, for every padded x-row (z+1)*sy + y+1, ghost rows
// and ghost end cells included, whether it holds a solid cell.
func (l *Lattice) solidRows() []bool {
	for r := range l.rowSolid {
		l.rowSolid[r] = slices.Contains(l.Solid[r*l.sx:(r+1)*l.sx], true)
	}
	return l.rowSolid
}

// linkOffset returns the index distance from a cell to its neighbor
// along link i.
func (l *Lattice) linkOffset(i int) int {
	return (C[i][2]*l.sy+C[i][1])*l.sx + C[i][0]
}

// bounce returns what streams into fluid cell c along link i when the
// cell one link back, wall, is solid: the cell's own post-collision value
// of the opposite link, reflected half-way, corrected for the wall's
// velocity, or interpolated where the link's wall intersection is
// resolved (curved boundaries).
func (l *Lattice) bounce(i, c, wall int) float32 {
	o := Opp[i]
	if lq := l.LinkQ[c]; lq != nil && lq[o] != 0 {
		return l.curvedBounce(i, o, c, lq[o])
	}
	v := l.Post[o][c]
	if l.WallU != nil {
		if uw := l.WallU[wall]; uw != [3]float32{} {
			cu := cf[i][0]*uw[0] + cf[i][1]*uw[1] + cf[i][2]*uw[2]
			v += 6 * W[i] * l.Rho[c] * cu
		}
	}
	return v
}
