package sparse

import "fmt"

// SolveStats reports an iterative solve's outcome.
type SolveStats struct {
	Iterations int
	Residual   float64
	Converged  bool
}

// CG solves the SPD system A x = b with the conjugate gradient method
// (Krueger & Westermann's GPU solver, reference [16] of the paper),
// starting from x = 0, until ||r|| <= tol*||b|| or maxIter.
func CG(a *CSR, b []float32, tol float64, maxIter int) ([]float32, SolveStats) {
	if a.Rows != a.Cols || len(b) != a.Rows {
		panic(fmt.Sprintf("sparse: CG shape mismatch %dx%d vs %d", a.Rows, a.Cols, len(b)))
	}
	x := make([]float32, a.Rows)
	r := make([]float32, a.Rows)
	copy(r, b)
	p := make([]float32, a.Rows)
	copy(p, b)
	rr := Dot(r, r)
	bnorm := Norm2(b)
	if bnorm == 0 {
		return x, SolveStats{Converged: true}
	}
	var st SolveStats
	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		ap := a.MulVec(p)
		pap := Dot(p, ap)
		if pap <= 0 {
			break // loss of positive-definiteness in float arithmetic
		}
		alpha := rr / pap
		for i := range x {
			x[i] += float32(alpha) * p[i]
			r[i] -= float32(alpha) * ap[i]
		}
		rrNew := Dot(r, r)
		st.Residual = Norm2(r) / bnorm
		if st.Residual <= tol {
			st.Converged = true
			st.Iterations++
			return x, st
		}
		beta := rrNew / rr
		for i := range p {
			p[i] = r[i] + float32(beta)*p[i]
		}
		rr = rrNew
	}
	st.Residual = Norm2(r) / bnorm
	st.Converged = st.Residual <= tol
	return x, st
}
