package core

import (
	"fmt"
	"strings"
)

// Matrix is a correlation matrix between the objects of two frames (or of
// one frame with itself, for the SPMD evaluator): P[i][j] is the evidence
// that row-object i corresponds to column-object j, expressed as a
// probability in [0,1]. Row/column index 0 is unused; ids are 1-based like
// cluster identifiers.
type Matrix struct {
	// Name records which evaluator produced the matrix.
	Name string
	// RowFrame and ColFrame are the frame indices the axes refer to.
	RowFrame, ColFrame int
	// P holds the correlation values, P[rowID][colID], 1-based.
	P [][]float64
}

// NewMatrix allocates a rows×cols matrix (1-based, so the backing arrays
// have an extra slot).
func NewMatrix(name string, rowFrame, colFrame, rows, cols int) *Matrix {
	p := make([][]float64, rows+1)
	for i := range p {
		p[i] = make([]float64, cols+1)
	}
	return &Matrix{Name: name, RowFrame: rowFrame, ColFrame: colFrame, P: p}
}

// Rows and Cols return the 1-based dimensions.
func (m *Matrix) Rows() int { return len(m.P) - 1 }
func (m *Matrix) Cols() int {
	if len(m.P) == 0 {
		return 0
	}
	return len(m.P[0]) - 1
}

// At returns P[i][j], tolerating out-of-range ids (0).
func (m *Matrix) At(i, j int) float64 {
	if i <= 0 || i >= len(m.P) || j <= 0 || j >= len(m.P[i]) {
		return 0
	}
	return m.P[i][j]
}

// Set stores P[i][j], ignoring out-of-range ids.
func (m *Matrix) Set(i, j int, v float64) {
	if i <= 0 || i >= len(m.P) || j <= 0 || j >= len(m.P[i]) {
		return
	}
	m.P[i][j] = v
}

// Threshold zeroes every cell strictly below min: "occurrences with a very
// small probability (5% by default) are neglected as outliers".
func (m *Matrix) Threshold(min float64) {
	for i := 1; i < len(m.P); i++ {
		for j := 1; j < len(m.P[i]); j++ {
			if m.P[i][j] < min {
				m.P[i][j] = 0
			}
		}
	}
}

// NonZero returns all (row, col, value) cells above zero in row-major
// order.
func (m *Matrix) NonZero() []Cell {
	var out []Cell
	for i := 1; i < len(m.P); i++ {
		for j := 1; j < len(m.P[i]); j++ {
			if m.P[i][j] > 0 {
				out = append(out, Cell{Row: i, Col: j, Value: m.P[i][j]})
			}
		}
	}
	return out
}

// Cell is one non-zero entry of a correlation matrix.
type Cell struct {
	Row, Col int
	Value    float64
}

// String renders the matrix as a compact percentage table, in the style of
// the paper's Figure 3.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (frame %d rows x frame %d cols)\n", m.Name, m.RowFrame, m.ColFrame)
	sb.WriteString("      ")
	for j := 1; j <= m.Cols(); j++ {
		fmt.Fprintf(&sb, "%7s", fmt.Sprintf("B%d", j))
	}
	sb.WriteByte('\n')
	for i := 1; i <= m.Rows(); i++ {
		fmt.Fprintf(&sb, "A%-4d ", i)
		for j := 1; j <= m.Cols(); j++ {
			v := m.P[i][j]
			if v == 0 {
				sb.WriteString("      .")
			} else {
				fmt.Fprintf(&sb, "%6.0f%%", v*100)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
