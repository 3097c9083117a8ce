package lbm

// The kernels and the border pack as they stood before the row-wise,
// table-driven rewrite, kept verbatim as the oracle of
// TestStepMatchesReferenceKernel and FuzzStepMatchesReference: one cell
// at a time, every index through Idx, every moment and equilibrium term
// a product with float32(C[i][k]). Nothing here is shared with the code
// under test except the lattice constants and the Lattice fields.

// refStep is the step skeleton over the reference kernels.
func (l *Lattice) refStep(exchange func(dim int)) {
	for dim := 0; dim < 3; dim++ {
		l.refFillFace(2*dim, dim)
		l.refFillFace(2*dim+1, dim)
		if exchange != nil {
			exchange(dim)
		}
	}
	l.refStream()
	l.refCollide()
	l.step++
}

func refFeq(out *[Q]float32, rho, ux, uy, uz float32) {
	usq := ux*ux + uy*uy + uz*uz
	base := 1 - 1.5*usq
	for i := 0; i < Q; i++ {
		cu := float32(C[i][0])*ux + float32(C[i][1])*uy + float32(C[i][2])*uz
		out[i] = W[i] * rho * (base + 3*cu + 4.5*cu*cu)
	}
}

func refMoments(f *[Q]float32) (rho, ux, uy, uz float32) {
	for i := 0; i < Q; i++ {
		v := f[i]
		rho += v
		ux += v * float32(C[i][0])
		uy += v * float32(C[i][1])
		uz += v * float32(C[i][2])
	}
	if rho != 0 {
		inv := 1 / rho
		ux *= inv
		uy *= inv
		uz *= inv
	}
	return
}

// refMRT is MRT.Collide over refFeq.
type refMRT struct{ *MRT }

func (m refMRT) Collide(f, post *[Q]float32, rho, ux, uy, uz float32) {
	var feq [Q]float32
	refFeq(&feq, rho, ux, uy, uz)
	var dm [Q]float32
	for a := 0; a < Q; a++ {
		if m.S[a] == 0 {
			continue
		}
		var dev float32
		row := &m.M[a]
		for i := 0; i < Q; i++ {
			dev += row[i] * (f[i] - feq[i])
		}
		dm[a] = m.S[a] * dev
	}
	for i := 0; i < Q; i++ {
		var corr float32
		row := &m.Minv[i]
		for a := 0; a < Q; a++ {
			corr += row[a] * dm[a]
		}
		post[i] = f[i] - corr
	}
}

func (l *Lattice) refCollide() {
	omega := 1 / l.Tau
	var f, post, feq [Q]float32
	hasForce := l.Force != [3]float32{} || l.ForceField != nil
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			base := l.Idx(0, y, z)
			for x := 0; x < l.NX; x++ {
				c := base + x
				if l.Solid[c] {
					continue
				}
				var rho, ux, uy, uz float32
				for i := 0; i < Q; i++ {
					v := l.F[i][c]
					f[i] = v
					rho += v
					ux += v * float32(C[i][0])
					uy += v * float32(C[i][1])
					uz += v * float32(C[i][2])
				}
				inv := float32(1) / rho
				ux *= inv
				uy *= inv
				uz *= inv
				l.Rho[c] = rho

				if l.Collision != nil {
					l.Collision.Collide(&f, &post, rho, ux, uy, uz)
				} else {
					refFeq(&feq, rho, ux, uy, uz)
					for i := 0; i < Q; i++ {
						post[i] = f[i] - omega*(f[i]-feq[i])
					}
				}
				if hasForce {
					a := l.Force
					if l.ForceField != nil {
						a = a.Add(l.ForceField[c])
					}
					if a != [3]float32{} {
						for i := 0; i < Q; i++ {
							ca := float32(C[i][0])*a[0] + float32(C[i][1])*a[1] + float32(C[i][2])*a[2]
							post[i] += 3 * W[i] * rho * ca
						}
					}
				}
				for i := 0; i < Q; i++ {
					l.Post[i][c] = post[i]
				}
			}
		}
	}
}

func (l *Lattice) refFillFace(face int, dim int) {
	spec := l.Faces[face]
	switch spec.Type {
	case Ghost, Wall, MovingWall:
		return
	}
	neg := face%2 == 0
	var gcoord, wrapcoord, edgecoord int
	switch dim {
	case 0:
		gcoord, wrapcoord, edgecoord = -1, l.NX-1, 0
		if !neg {
			gcoord, wrapcoord, edgecoord = l.NX, 0, l.NX-1
		}
	case 1:
		gcoord, wrapcoord, edgecoord = -1, l.NY-1, 0
		if !neg {
			gcoord, wrapcoord, edgecoord = l.NY, 0, l.NY-1
		}
	case 2:
		gcoord, wrapcoord, edgecoord = -1, l.NZ-1, 0
		if !neg {
			gcoord, wrapcoord, edgecoord = l.NZ, 0, l.NZ-1
		}
	}

	rho := spec.Rho
	if rho == 0 {
		rho = 1
	}
	var feq [Q]float32
	if spec.Type == Inlet {
		refFeq(&feq, rho, spec.U[0], spec.U[1], spec.U[2])
	}

	sweep := func(visit func(a, b int)) {
		switch dim {
		case 0:
			for z := 0; z < l.NZ; z++ {
				for y := 0; y < l.NY; y++ {
					visit(y, z)
				}
			}
		case 1:
			for z := 0; z < l.NZ; z++ {
				for x := -1; x <= l.NX; x++ {
					visit(x, z)
				}
			}
		case 2:
			for y := -1; y <= l.NY; y++ {
				for x := -1; x <= l.NX; x++ {
					visit(x, y)
				}
			}
		}
	}

	idxFor := func(a, b int) (ghost, src int) {
		switch dim {
		case 0:
			ghost = l.Idx(gcoord, a, b)
			if spec.Type == Periodic {
				src = l.Idx(wrapcoord, a, b)
			} else {
				src = l.Idx(edgecoord, a, b)
			}
		case 1:
			ghost = l.Idx(a, gcoord, b)
			if spec.Type == Periodic {
				src = l.Idx(a, wrapcoord, b)
			} else {
				src = l.Idx(a, edgecoord, b)
			}
		default:
			ghost = l.Idx(a, b, gcoord)
			if spec.Type == Periodic {
				src = l.Idx(a, b, wrapcoord)
			} else {
				src = l.Idx(a, b, edgecoord)
			}
		}
		return
	}

	switch spec.Type {
	case Periodic:
		sweep(func(a, b int) {
			ghost, src := idxFor(a, b)
			for i := 0; i < Q; i++ {
				l.Post[i][ghost] = l.Post[i][src]
			}
			l.Solid[ghost] = l.Solid[src]
		})
	case Inlet:
		sweep(func(a, b int) {
			ghost, _ := idxFor(a, b)
			for i := 0; i < Q; i++ {
				l.Post[i][ghost] = feq[i]
			}
		})
	case Outflow:
		clampA := func(a int) int { return a }
		clampB := func(b int) int { return b }
		switch dim {
		case 1:
			clampA = func(a int) int { return refClampInt(a, 0, l.NX-1) }
		case 2:
			clampA = func(a int) int { return refClampInt(a, 0, l.NX-1) }
			clampB = func(b int) int { return refClampInt(b, 0, l.NY-1) }
		}
		sweep(func(a, b int) {
			ghost, _ := idxFor(a, b)
			_, src := idxFor(clampA(a), clampB(b))
			var fp [Q]float32
			for i := 0; i < Q; i++ {
				fp[i] = l.Post[i][src]
			}
			rhoSrc, ux, uy, uz := refMoments(&fp)
			var feqSrc, feqOut [Q]float32
			refFeq(&feqSrc, rhoSrc, ux, uy, uz)
			refFeq(&feqOut, rho, ux, uy, uz)
			for i := 0; i < Q; i++ {
				l.Post[i][ghost] = fp[i] - feqSrc[i] + feqOut[i]
			}
		})
	}
}

func refClampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func (l *Lattice) refStream() {
	for z := 0; z < l.NZ; z++ {
		for y := 0; y < l.NY; y++ {
			base := l.Idx(0, y, z)
			for x := 0; x < l.NX; x++ {
				c := base + x
				if l.Solid[c] {
					continue
				}
				var lq *linkQ
				if l.LinkQ != nil {
					lq = l.LinkQ[c]
				}
				for i := 0; i < Q; i++ {
					src := l.Idx(x-C[i][0], y-C[i][1], z-C[i][2])
					if l.Solid[src] {
						o := Opp[i]
						if lq != nil && lq[o] != 0 {
							l.F[i][c] = l.refCurvedBounce(i, o, c, x, y, z, lq[o])
							continue
						}
						v := l.Post[o][c]
						if l.WallU != nil {
							uw := l.WallU[src]
							if uw != [3]float32{} {
								cu := float32(C[i][0])*uw[0] + float32(C[i][1])*uw[1] + float32(C[i][2])*uw[2]
								v += 6 * W[i] * l.Rho[c] * cu
							}
						}
						l.F[i][c] = v
					} else {
						l.F[i][c] = l.Post[i][src]
					}
				}
			}
		}
	}
}

func (l *Lattice) refCurvedBounce(i, o, c, x, y, z int, q float32) float32 {
	if q < 0.5 {
		up := l.Idx(x+C[i][0], y+C[i][1], z+C[i][2])
		if !l.Solid[up] {
			return 2*q*l.Post[o][c] + (1-2*q)*l.Post[o][up]
		}
		return l.Post[o][c]
	}
	inv := 1 / (2 * q)
	return inv*l.Post[o][c] + (2*q-1)*inv*l.Post[i][c]
}

func refDirsInto(dim, dir int) []int {
	var out []int
	for i := 0; i < Q; i++ {
		if C[i][dim] == dir {
			out = append(out, i)
		}
	}
	return out
}

func (l *Lattice) refBorderPlane(dim int, visit func(a, b int)) {
	switch dim {
	case 0:
		for z := 0; z < l.NZ; z++ {
			for y := 0; y < l.NY; y++ {
				visit(y, z)
			}
		}
	case 1:
		for z := 0; z < l.NZ; z++ {
			for x := -1; x <= l.NX; x++ {
				visit(x, z)
			}
		}
	default:
		for y := -1; y <= l.NY; y++ {
			for x := -1; x <= l.NX; x++ {
				visit(x, y)
			}
		}
	}
}

func (l *Lattice) refPlaneIdx(dim, c, a, b int) int {
	switch dim {
	case 0:
		return l.Idx(c, a, b)
	case 1:
		return l.Idx(a, c, b)
	default:
		return l.Idx(a, b, c)
	}
}

func (l *Lattice) refPackBorder(dim, dir int) []float32 {
	dists := refDirsInto(dim, dir)
	plane := l.NX - 1
	if dir < 0 {
		plane = 0
	} else {
		switch dim {
		case 1:
			plane = l.NY - 1
		case 2:
			plane = l.NZ - 1
		}
	}
	out := make([]float32, 0, l.BorderLen(dim))
	l.refBorderPlane(dim, func(a, b int) {
		c := l.refPlaneIdx(dim, plane, a, b)
		for _, i := range dists {
			out = append(out, l.Post[i][c])
		}
	})
	return out
}

func (l *Lattice) refUnpackGhost(dim, dir int, data []float32) {
	dists := refDirsInto(dim, -dir)
	ghost := -1
	if dir > 0 {
		switch dim {
		case 0:
			ghost = l.NX
		case 1:
			ghost = l.NY
		default:
			ghost = l.NZ
		}
	}
	pos := 0
	l.refBorderPlane(dim, func(a, b int) {
		c := l.refPlaneIdx(dim, ghost, a, b)
		for _, i := range dists {
			l.Post[i][c] = data[pos]
			pos++
		}
	})
	if pos != len(data) {
		panic("lbm: ghost payload length mismatch")
	}
}
