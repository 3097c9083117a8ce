// Package sparse implements the sparse linear algebra layer Section 6
// calls for: "implicit finite differences and FEM require the solution
// of a large sparse linear system Ax = y". It provides CSR matrices,
// the conjugate-gradient solver ported to GPUs by Krueger & Westermann
// and Bolz et al., a GPU matvec using indirection textures, and the
// cluster decomposition of matrix and vector with proxy points exactly
// as Figures 14 and 15 describe.
package sparse

import (
	"fmt"
	"math"
	"sort"
)

// Triplet is one (row, col, value) matrix entry.
type Triplet struct {
	Row, Col int
	Val      float32
}

// CSR is a compressed-sparse-row matrix.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float32
}

// NewCSR assembles a CSR matrix from triplets, summing duplicates.
func NewCSR(rows, cols int, entries []Triplet) *CSR {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("sparse: invalid shape %dx%d", rows, cols))
	}
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			panic(fmt.Sprintf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols))
		}
	}
	sorted := make([]Triplet, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1)}
	for i := 0; i < len(sorted); {
		j := i
		var sum float32
		for j < len(sorted) && sorted[j].Row == sorted[i].Row && sorted[j].Col == sorted[i].Col {
			sum += sorted[j].Val
			j++
		}
		m.ColIdx = append(m.ColIdx, sorted[i].Col)
		m.Val = append(m.Val, sum)
		m.RowPtr[sorted[i].Row+1]++
		i = j
	}
	for r := 0; r < rows; r++ {
		m.RowPtr[r+1] += m.RowPtr[r]
	}
	return m
}

// NNZ returns the stored entry count.
func (m *CSR) NNZ() int { return len(m.Val) }

// MulVec computes y = A x.
func (m *CSR) MulVec(x []float32) []float32 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("sparse: MulVec dim %d != %d", len(x), m.Cols))
	}
	y := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		var s float32
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			s += m.Val[k] * x[m.ColIdx[k]]
		}
		y[r] = s
	}
	return y
}

// Diagonal extracts the main diagonal (zeros where absent).
func (m *CSR) Diagonal() []float32 {
	d := make([]float32, m.Rows)
	for r := 0; r < m.Rows; r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			if m.ColIdx[k] == r {
				d[r] = m.Val[k]
			}
		}
	}
	return d
}

// MaxRowNNZ returns the widest row (the K needed for the GPU layout).
func (m *CSR) MaxRowNNZ() int {
	w := 0
	for r := 0; r < m.Rows; r++ {
		if n := m.RowPtr[r+1] - m.RowPtr[r]; n > w {
			w = n
		}
	}
	return w
}

// Poisson2D builds the standard 5-point Laplacian (Dirichlet) on an
// n x n grid: SPD, the canonical iterative-solver benchmark.
func Poisson2D(n int) *CSR {
	var tr []Triplet
	id := func(i, j int) int { return j*n + i }
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			r := id(i, j)
			tr = append(tr, Triplet{r, r, 4})
			if i > 0 {
				tr = append(tr, Triplet{r, id(i-1, j), -1})
			}
			if i < n-1 {
				tr = append(tr, Triplet{r, id(i+1, j), -1})
			}
			if j > 0 {
				tr = append(tr, Triplet{r, id(i, j-1), -1})
			}
			if j < n-1 {
				tr = append(tr, Triplet{r, id(i, j+1), -1})
			}
		}
	}
	return NewCSR(n*n, n*n, tr)
}

// Dot computes the double-precision dot product of float32 vectors.
func Dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// Norm2 returns the Euclidean norm.
func Norm2(a []float32) float64 {
	return math.Sqrt(Dot(a, a))
}
