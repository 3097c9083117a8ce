package lbm

// Border pack/unpack for the cluster decomposition of Section 4.3. A node
// sends, for each of its faces, the post-collision distributions that
// stream out of its sub-domain: the 5 directions with a positive velocity
// component toward the neighbor, evaluated on the border plane. The
// y-plane includes the x ghost columns and the z-plane includes both x
// and y ghosts, so diagonal (second-nearest-neighbor) data are routed
// indirectly through axial exchanges in two hops — the paper's Figure 7
// pattern. For a cubic N^3 sub-domain the x payload is 5*N^2 floats, and
// the y/z payloads carry the extra c*N ghost-column floats the paper
// accounts as the "c/(5N)" packet-size increase.

// dirsInto[dim][side] lists the distribution indices with
// C[i][dim] == 2*side-1, in index order.
var dirsInto = func() (t [3][2][5]int) {
	for dim := range t {
		for side := range t[dim] {
			k := 0
			for i, c := range C {
				if c[dim] == 2*side-1 {
					t[dim][side][k] = i
					k++
				}
			}
		}
	}
	return t
}()

// DirsInto returns the distribution indices with C[i][dim] == dir
// (dir is +1 or -1); these are the 5 directions crossing a face. The
// slice is shared: callers must not modify it.
func DirsInto(dim, dir int) []int {
	return dirsInto[dim][(dir+1)/2][:]
}

// plane is the index geometry of the cell planes perpendicular to one
// dimension, as ghost fill and border exchange sweep them: b outer, a
// inner, honoring the dimension-ordered ghost inclusion (x planes span
// the interior, y planes include the x ghosts, z planes include the x and
// y ghosts).
type plane struct {
	n              int // interior extent along the dimension
	na, nb         int // cells along the two in-plane axes
	sa, sb, sn     int // index strides along a, b and the dimension
	ghostA, ghostB int // 1 when that in-plane axis includes its two ghost cells
	origin         int // index of the first cell swept, at coordinate 0 along the dimension
}

func (l *Lattice) plane(dim int) plane {
	switch dim {
	case 0:
		return plane{n: l.NX, na: l.NY, nb: l.NZ, sa: l.sx, sb: l.sx * l.sy, sn: 1,
			origin: l.Idx(0, 0, 0)}
	case 1:
		return plane{n: l.NY, na: l.sx, nb: l.NZ, sa: 1, sb: l.sx * l.sy, sn: l.sx,
			ghostA: 1, origin: l.Idx(-1, 0, 0)}
	default:
		return plane{n: l.NZ, na: l.sx, nb: l.sy, sa: 1, sb: l.sx, sn: l.sx * l.sy,
			ghostA: 1, ghostB: 1, origin: l.Idx(-1, -1, 0)}
	}
}

// at returns the index of the first cell of the plane at coordinate c
// (-1 and n are the ghost planes).
func (p plane) at(c int) int { return p.origin + c*p.sn }

// BorderLen returns the float count of one border message for dim.
func (l *Lattice) BorderLen(dim int) int {
	p := l.plane(dim)
	return 5 * p.na * p.nb
}

// PackBorder collects the post-collision distributions leaving the
// sub-domain through the dim/dir face (dir = +1 for the high face, -1 for
// the low face) into a new flat slice ready for transmission.
func (l *Lattice) PackBorder(dim, dir int) []float32 {
	out := make([]float32, l.BorderLen(dim))
	l.PackBorderInto(out, dim, dir)
	return out
}

// PackBorderInto is PackBorder into the caller's buffer, which must hold
// exactly BorderLen(dim) floats: plane cells in sweep order, the five
// distributions of a cell consecutive.
func (l *Lattice) PackBorderInto(out []float32, dim, dir int) {
	if len(out) != l.BorderLen(dim) {
		panic("lbm: border buffer length mismatch")
	}
	p := l.plane(dim)
	border := p.at(0)
	if dir > 0 {
		border = p.at(p.n - 1)
	}
	for b := 0; b < p.nb; b++ {
		row := out[5*p.na*b : 5*p.na*(b+1)]
		for k, i := range DirsInto(dim, dir) {
			src := l.Post[i][border+b*p.sb:]
			for a := 0; a < p.na; a++ {
				row[5*a+k] = src[a*p.sa]
			}
		}
	}
}

// UnpackGhost writes a received border payload into the ghost plane on
// the dim/dir side (dir = -1 for the low ghost plane at coordinate -1,
// +1 for the high ghost plane at coordinate N). The payload must have
// been produced by the neighbor's PackBorder with the opposite dir, so
// the distributions stored are those streaming into this sub-domain.
func (l *Lattice) UnpackGhost(dim, dir int, data []float32) {
	if len(data) != l.BorderLen(dim) {
		panic("lbm: ghost payload length mismatch")
	}
	p := l.plane(dim)
	ghost := p.at(-1)
	if dir > 0 {
		ghost = p.at(p.n)
	}
	for b := 0; b < p.nb; b++ {
		row := data[5*p.na*b : 5*p.na*(b+1)]
		// Directions entering through the low ghost plane have positive
		// velocity along dim, and vice versa.
		for k, i := range DirsInto(dim, -dir) {
			dst := l.Post[i][ghost+b*p.sb:]
			for a := 0; a < p.na; a++ {
				dst[a*p.sa] = row[5*a+k]
			}
		}
	}
}
