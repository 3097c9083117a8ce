// Package lbm implements the D3Q19 lattice Boltzmann method of Section 4
// of the paper: BGK and multiple-relaxation-time (MRT) collision
// operators, half-way bounce-back solid boundaries (including moving
// walls), equilibrium velocity inlets, zero-gradient outflow, periodic
// boundaries, body forces, and the hybrid thermal coupling of the HTLBM.
// This package is the CPU reference implementation; package lbmgpu maps
// the identical update rule onto the simulated GPU, and package cluster
// decomposes it across nodes.
package lbm

// Q is the number of discrete velocities of the D3Q19 lattice: the rest
// velocity, 6 nearest axial links and 12 second-nearest diagonal links
// (Figure 4 of the paper).
const Q = 19

// C lists the discrete velocity vectors c_i.
var C = [Q][3]int{
	{0, 0, 0},
	{1, 0, 0}, {-1, 0, 0},
	{0, 1, 0}, {0, -1, 0},
	{0, 0, 1}, {0, 0, -1},
	{1, 1, 0}, {-1, -1, 0},
	{1, -1, 0}, {-1, 1, 0},
	{1, 0, 1}, {-1, 0, -1},
	{1, 0, -1}, {-1, 0, 1},
	{0, 1, 1}, {0, -1, -1},
	{0, 1, -1}, {0, -1, 1},
}

// cf is C as floats, for the terms that stay products: wall velocities
// and body forces.
var cf = func() (t [Q][3]float32) {
	for i, c := range C {
		t[i] = [3]float32{float32(c[0]), float32(c[1]), float32(c[2])}
	}
	return t
}()

// W lists the lattice weights w_i.
var W = [Q]float32{
	1.0 / 3.0,
	1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0, 1.0 / 18.0,
	1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
	1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0, 1.0 / 36.0,
}

// Opp maps each direction to its opposite: C[Opp[i]] == -C[i].
var Opp = [Q]int{0, 2, 1, 4, 3, 6, 5, 8, 7, 10, 9, 12, 11, 14, 13, 16, 15, 18, 17}

// CsSq is the lattice speed of sound squared, c_s^2 = 1/3.
const CsSq = 1.0 / 3.0

// Feq fills out[0:Q] with the full equilibrium distribution. Every
// entry rounds as w_i rho ((base + 3 c.u) + 4.5 (c.u)^2) with
// base = 1 - 1.5 u.u does, c.u summed over x, y, z in that order — the
// expression package lbmgpu's fragment programs mirror. The products of
// c.u by a zero component are dropped and those by +-1 are the operand
// (both exact), and a link and its opposite share 3 c.u, 4.5 (c.u)^2 and
// w_i rho: the opposite's c.u is the exact negation.
func Feq(out *[Q]float32, rho, ux, uy, uz float32) {
	usq := ux*ux + uy*uy + uz*uz
	base := 1 - 1.5*usq
	rest, axial, diag := W[0]*rho, W[1]*rho, W[7]*rho
	out[0] = rest * base
	out[1], out[2] = feqPair(axial, base, ux)
	out[3], out[4] = feqPair(axial, base, uy)
	out[5], out[6] = feqPair(axial, base, uz)
	out[7], out[8] = feqPair(diag, base, ux+uy)
	out[9], out[10] = feqPair(diag, base, ux-uy)
	out[11], out[12] = feqPair(diag, base, ux+uz)
	out[13], out[14] = feqPair(diag, base, ux-uz)
	out[15], out[16] = feqPair(diag, base, uy+uz)
	out[17], out[18] = feqPair(diag, base, uy-uz)
}

// feqPair returns the equilibria of a link with c.u = cu and of its
// opposite; wrho is w_i rho.
func feqPair(wrho, base, cu float32) (fwd, back float32) {
	cu3, cuSq := 3*cu, 4.5*cu*cu
	return wrho * (base + cu3 + cuSq), wrho * (base - cu3 + cuSq)
}

// momentSums returns the zeroth and first velocity moments of one cell's
// distributions, sum f_i and sum c_i f_i, each accumulated from zero in
// index order with the terms of a zero component dropped: what the plain
// loop over C rounds to, the leading zero included (it turns a first
// term of -0 into +0).
func momentSums(f *[Q]float32) (rho, jx, jy, jz float32) {
	rho = 0 + f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7] + f[8] + f[9] +
		f[10] + f[11] + f[12] + f[13] + f[14] + f[15] + f[16] + f[17] + f[18]
	jx = 0 + f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14]
	jy = 0 + f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18]
	jz = 0 + f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18]
	return
}

// Moments returns density and momentum-derived velocity for one cell's
// distributions.
func Moments(f *[Q]float32) (rho, ux, uy, uz float32) {
	rho, ux, uy, uz = momentSums(f)
	if rho != 0 {
		inv := 1 / rho
		ux *= inv
		uy *= inv
		uz *= inv
	}
	return
}
