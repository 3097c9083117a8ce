package sparse

import (
	"fmt"
	"math"

	"gpucluster/internal/mpi"
	"gpucluster/internal/sched"
)

// Distributed matrix-vector multiplication per Figure 15 of the paper:
// rows are partitioned contiguously over ranks; each rank's local matrix
// holds its rows, and its local vector holds the elements of its own
// (local) points plus proxy elements for the neighbor points referenced
// by off-range columns. Each multiply first refreshes the proxy elements
// over the network, then runs a purely local matvec.

// DistMatrix is one rank's share of a distributed CSR matrix.
type DistMatrix struct {
	Rank, Ranks int
	// RowOffset is the global index of local row 0; LocalRows counts
	// this rank's rows.
	RowOffset, LocalRows int
	// local is the local matrix: columns renumbered into the local
	// vector layout [local points | proxy points] (Figure 15).
	local *CSR
	// proxyOwner is each proxy slot's owning rank.
	proxyOwner []int
	// needFrom[r] lists the local indices (at the owner) of elements
	// this rank needs from rank r; sendTo is the mirror image, built in
	// Setup: the local element indices rank r wants from us.
	needFrom map[int][]int
	sendTo   map[int][]int
}

// NewDistMatrix extracts rank's share of the global matrix a, rows split
// by sched.Partition, renumbering off-range columns into proxy slots.
func NewDistMatrix(a *CSR, rank, ranks int) *DistMatrix {
	if a.Rows != a.Cols {
		panic("sparse: distributed matvec needs a square matrix")
	}
	offsets, sizes := sched.Partition(a.Rows, ranks)
	d := &DistMatrix{
		Rank: rank, Ranks: ranks,
		RowOffset: offsets[rank], LocalRows: sizes[rank],
		needFrom: map[int][]int{}, sendTo: map[int][]int{},
	}
	ownerOf := func(col int) int {
		for r := 0; r < ranks; r++ {
			if col < offsets[r]+sizes[r] {
				return r
			}
		}
		panic("unreachable")
	}
	proxySlot := map[int]int{} // global col -> proxy index
	var tr []Triplet
	for lr := 0; lr < d.LocalRows; lr++ {
		gr := d.RowOffset + lr
		for k := a.RowPtr[gr]; k < a.RowPtr[gr+1]; k++ {
			col := a.ColIdx[k]
			var lc int
			if col >= d.RowOffset && col < d.RowOffset+d.LocalRows {
				lc = col - d.RowOffset
			} else {
				slot, ok := proxySlot[col]
				if !ok {
					slot = len(d.proxyOwner)
					proxySlot[col] = slot
					owner := ownerOf(col)
					d.proxyOwner = append(d.proxyOwner, owner)
					d.needFrom[owner] = append(d.needFrom[owner], col-offsets[owner])
				}
				lc = d.LocalRows + slot
			}
			tr = append(tr, Triplet{lr, lc, a.Val[k]})
		}
	}
	cols := d.LocalRows + len(d.proxyOwner)
	if cols == 0 {
		cols = 1
	}
	d.local = NewCSR(maxInt(d.LocalRows, 1), cols, tr)
	return d
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Setup exchanges the proxy requirements so every rank knows which of
// its elements the others need. Must run once, collectively, before
// MulVec.
func (d *DistMatrix) Setup(c *mpi.Comm) {
	const tag = 900
	for r := 0; r < d.Ranks; r++ {
		if r == d.Rank {
			continue
		}
		need := d.needFrom[r]
		req := make([]float32, len(need))
		for i, idx := range need {
			req[i] = float32(idx)
		}
		c.Send(r, tag, req)
	}
	for r := 0; r < d.Ranks; r++ {
		if r == d.Rank {
			continue
		}
		req := c.Recv(r, tag)
		if len(req) == 0 {
			continue
		}
		idxs := make([]int, len(req))
		for i, v := range req {
			idxs[i] = int(v)
		}
		d.sendTo[r] = idxs
	}
}

// MulVec multiplies the distributed matrix by the distributed vector:
// xLocal holds this rank's LocalRows elements. The proxy refresh is one
// message per neighboring rank per multiply, the communication pattern
// Figure 15 prescribes. Collective: every rank must call it together.
func (d *DistMatrix) MulVec(c *mpi.Comm, xLocal []float32, tag int) []float32 {
	if len(xLocal) != d.LocalRows {
		panic(fmt.Sprintf("sparse: local vector %d != %d rows", len(xLocal), d.LocalRows))
	}
	// Serve the neighbors' proxy requests.
	for r, idxs := range d.sendTo {
		vals := make([]float32, len(idxs))
		for i, idx := range idxs {
			vals[i] = xLocal[idx]
		}
		c.Send(r, tag, vals)
	}
	// Assemble the local vector [local | proxies].
	full := make([]float32, d.local.Cols)
	copy(full, xLocal)
	recvBuf := map[int][]float32{}
	for r := range d.needFrom {
		if len(d.needFrom[r]) > 0 {
			recvBuf[r] = c.Recv(r, tag)
		}
	}
	cursor := map[int]int{}
	for slot, owner := range d.proxyOwner {
		buf := recvBuf[owner]
		full[d.LocalRows+slot] = buf[cursor[owner]]
		cursor[owner]++
	}
	y := d.local.MulVec(full)
	return y[:d.LocalRows]
}

// DistCG solves A x = b with conjugate gradients where A and the vectors
// are distributed over the communicator's ranks; dot products reduce over
// mpi.Allreduce. It returns this rank's slice of the solution.
func DistCG(c *mpi.Comm, d *DistMatrix, bLocal []float32, tol float64, maxIter int) ([]float32, SolveStats) {
	x := make([]float32, d.LocalRows)
	r := make([]float32, d.LocalRows)
	copy(r, bLocal)
	p := make([]float32, d.LocalRows)
	copy(p, bLocal)

	gdot := func(a, b []float32) float64 {
		local := Dot(a, b)
		out := c.Allreduce([]float32{float32(local)}, mpi.Sum)
		return float64(out[0])
	}
	rr := gdot(r, r)
	bnorm := gdot(bLocal, bLocal)
	var st SolveStats
	if bnorm == 0 {
		st.Converged = true
		return x, st
	}
	tag := 1000
	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		ap := d.MulVec(c, p, tag)
		tag++
		pap := gdot(p, ap)
		if pap <= 0 {
			break
		}
		alpha := rr / pap
		for i := range x {
			x[i] += float32(alpha) * p[i]
			r[i] -= float32(alpha) * ap[i]
		}
		rrNew := gdot(r, r)
		st.Residual = sqrtSafe(rrNew / bnorm)
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
	st.Residual = sqrtSafe(rr / bnorm)
	st.Converged = st.Residual <= tol
	return x, st
}

func sqrtSafe(x float64) float64 {
	if x < 0 {
		return 0
	}
	return math.Sqrt(x)
}
