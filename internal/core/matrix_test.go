package core

import (
	"strings"
	"testing"
)

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix("test", 0, 1, 3, 2)
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 0.5)
	if m.At(1, 2) != 0.5 {
		t.Errorf("At = %v", m.At(1, 2))
	}
	// Out-of-range access is safe.
	m.Set(0, 1, 9)
	m.Set(4, 1, 9)
	m.Set(1, 3, 9)
	if m.At(0, 1) != 0 || m.At(4, 1) != 0 || m.At(1, 3) != 0 {
		t.Error("out-of-range cells leaked")
	}
}

func TestMatrixThreshold(t *testing.T) {
	m := NewMatrix("t", 0, 1, 2, 2)
	m.Set(1, 1, 0.04)
	m.Set(1, 2, 0.06)
	m.Threshold(0.05)
	if m.At(1, 1) != 0 {
		t.Error("below-threshold cell survived")
	}
	if m.At(1, 2) != 0.06 {
		t.Error("above-threshold cell removed")
	}
}

func TestMatrixRowArgmax(t *testing.T) {
	m := NewMatrix("t", 0, 1, 2, 3)
	m.Set(1, 1, 0.2)
	m.Set(1, 3, 0.7)
	j, v := m.RowArgmax(1)
	if j != 3 || v != 0.7 {
		t.Errorf("argmax = %d, %v", j, v)
	}
	j, v = m.RowArgmax(2)
	if j != 0 || v != 0 {
		t.Errorf("empty row argmax = %d, %v", j, v)
	}
	if j, _ := m.RowArgmax(99); j != 0 {
		t.Error("out-of-range argmax")
	}
}

func TestMatrixNonZero(t *testing.T) {
	m := NewMatrix("t", 0, 1, 2, 2)
	m.Set(1, 2, 0.3)
	m.Set(2, 1, 0.9)
	cells := m.NonZero()
	if len(cells) != 2 {
		t.Fatalf("cells = %v", cells)
	}
	if cells[0] != (Cell{Row: 1, Col: 2, Value: 0.3}) {
		t.Errorf("cell 0 = %+v", cells[0])
	}
	if cells[1] != (Cell{Row: 2, Col: 1, Value: 0.9}) {
		t.Errorf("cell 1 = %+v", cells[1])
	}
}

func TestMatrixString(t *testing.T) {
	m := NewMatrix("displacement", 0, 1, 2, 2)
	m.Set(1, 1, 1)
	m.Set(2, 2, 0.65)
	s := m.String()
	for _, want := range []string{"displacement", "A1", "B2", "100%", "65%"} {
		if !strings.Contains(s, want) {
			t.Errorf("matrix string missing %q:\n%s", want, s)
		}
	}
	// Zero cells render as dots.
	if !strings.Contains(s, ".") {
		t.Error("zero cells should render as dots")
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(6)
	if !uf.union(0, 1) {
		t.Error("first union should report a merge")
	}
	if uf.union(1, 0) {
		t.Error("repeated union should report no merge")
	}
	uf.union(2, 3)
	uf.union(0, 3)
	if uf.find(1) != uf.find(2) {
		t.Error("transitive union broken")
	}
	if uf.find(4) == uf.find(0) {
		t.Error("separate sets merged")
	}
	groups := uf.groups()
	if len(groups) != 3 { // {0,1,2,3}, {4}, {5}
		t.Errorf("groups = %v", groups)
	}
	for _, members := range groups {
		for i := 1; i < len(members); i++ {
			if members[i] < members[i-1] {
				t.Error("group members not sorted")
			}
		}
	}
}
