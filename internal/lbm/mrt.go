package lbm

// Multiple-relaxation-time (MRT) collision operator for D3Q19, after
// d'Humieres, Bouzidi and Lallemand (Phys. Rev. E 63, 066702) — reference
// [8] of the paper. The hybrid thermal LBM of Section 4.1 "abandons the
// BGK collision model for the more stable MRT collision model"; this
// operator provides it.
//
// The moment basis is built programmatically from the standard orthogonal
// polynomials of the discrete velocities, and equilibrium moments are
// computed as M * feq. With every kinetic relaxation rate set equal to
// 1/tau the operator reduces exactly to BGK, which the tests verify;
// distinct rates for the non-hydrodynamic moments buy the extra stability
// the HTLBM needs at low viscosity.

// mrtBasis returns the 19 orthogonal moment basis vectors evaluated at
// the discrete velocities: rows of the transform matrix M.
func mrtBasis() [Q][Q]float32 {
	var m [Q][Q]float32
	for i := 0; i < Q; i++ {
		cx := float32(C[i][0])
		cy := float32(C[i][1])
		cz := float32(C[i][2])
		c2 := cx*cx + cy*cy + cz*cz
		c4 := c2 * c2
		m[0][i] = 1                             // rho
		m[1][i] = 19*c2 - 30                    // e (energy)
		m[2][i] = (21*c4 - 53*c2 + 24) / 2      // epsilon (energy^2)
		m[3][i] = cx                            // j_x
		m[4][i] = (5*c2 - 9) * cx               // q_x (heat flux)
		m[5][i] = cy                            // j_y
		m[6][i] = (5*c2 - 9) * cy               // q_y
		m[7][i] = cz                            // j_z
		m[8][i] = (5*c2 - 9) * cz               // q_z
		m[9][i] = 3*cx*cx - c2                  // 3 p_xx
		m[10][i] = (3*c2 - 5) * (3*cx*cx - c2)  // 3 pi_xx
		m[11][i] = cy*cy - cz*cz                // p_ww
		m[12][i] = (3*c2 - 5) * (cy*cy - cz*cz) // pi_ww
		m[13][i] = cx * cy                      // p_xy
		m[14][i] = cy * cz                      // p_yz
		m[15][i] = cx * cz                      // p_xz
		m[16][i] = (cy*cy - cz*cz) * cx         // m_x
		m[17][i] = (cz*cz - cx*cx) * cy         // m_y
		m[18][i] = (cx*cx - cy*cy) * cz         // m_z
	}
	return m
}

// MRT is the multiple-relaxation-time collision operator.
type MRT struct {
	// M transforms distributions to moments; Minv transforms back.
	M, Minv [Q][Q]float32
	// S holds the per-moment relaxation rates. Conserved moments
	// (rho, j_x, j_y, j_z) have rate 0 by construction.
	S [Q]float32
}

// Moment indices into S for readability.
const (
	MomRho = 0
	MomE   = 1
	MomEps = 2
	MomJx  = 3
	MomQx  = 4
	MomJy  = 5
	MomQy  = 6
	MomJz  = 7
	MomQz  = 8
	MomPxx = 9
	MomPiX = 10
	MomPww = 11
	MomPiW = 12
	MomPxy = 13
	MomPyz = 14
	MomPxz = 15
	MomMx  = 16
	MomMy  = 17
	MomMz  = 18
)

// NewMRT builds an MRT operator whose viscosity matches relaxation time
// tau (rates of the stress moments are 1/tau) and whose remaining kinetic
// moments use the stability-tuned rates of d'Humieres et al.
func NewMRT(tau float32) *MRT {
	m := &MRT{}
	m.M = mrtBasis()
	// Rows are mutually orthogonal: Minv = M^T diag(1/||row||^2).
	var norm [Q]float32
	for a := 0; a < Q; a++ {
		var s float32
		for i := 0; i < Q; i++ {
			s += m.M[a][i] * m.M[a][i]
		}
		norm[a] = s
	}
	for i := 0; i < Q; i++ {
		for a := 0; a < Q; a++ {
			m.Minv[i][a] = m.M[a][i] / norm[a]
		}
	}
	omega := 1 / tau
	m.S = [Q]float32{
		MomRho: 0,
		MomE:   1.19,
		MomEps: 1.4,
		MomJx:  0, MomJy: 0, MomJz: 0,
		MomQx: 1.2, MomQy: 1.2, MomQz: 1.2,
		MomPxx: omega, MomPww: omega,
		MomPxy: omega, MomPyz: omega, MomPxz: omega,
		MomPiX: 1.4, MomPiW: 1.4,
		MomMx: 1.98, MomMy: 1.98, MomMz: 1.98,
	}
	return m
}

// Collide implements CollisionOp: relax each moment of (f - feq) at its
// own rate.
func (m *MRT) Collide(f, post *[Q]float32, rho, ux, uy, uz float32) {
	var feq [Q]float32
	Feq(&feq, rho, ux, uy, uz)
	// Moment-space deviations, relaxed per moment.
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
	// Back-transform the relaxation and subtract.
	for i := 0; i < Q; i++ {
		var corr float32
		row := &m.Minv[i]
		for a := 0; a < Q; a++ {
			corr += row[a] * dm[a]
		}
		post[i] = f[i] - corr
	}
}
