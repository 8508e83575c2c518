package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/oracle"
)

// Differential harness for the displacement evaluator: the box-bounded,
// grid-accelerated cross-classification must be bit-identical to the
// linear-scan reference in internal/oracle. The tallies are
// integer-valued floats divided once per row, so exact equality is the
// contract, not an approximation.

// frameFromScenario wraps a seeded point scenario as a minimal Frame: the
// displacement evaluator only consumes Norm, Labels and NumClusters.
func frameFromScenario(idx int, sc oracle.Scenario) *Frame {
	labels := cluster.DBSCAN(sc.Points, sc.Eps, sc.MinPts)
	k := 0
	for _, l := range labels {
		if l > k {
			k = l
		}
	}
	return &Frame{Index: idx, Norm: sc.Points, Labels: labels, NumClusters: k}
}

// scenarioWithDims returns the first scenario at or after seed whose
// points have the wanted dimensionality (frames of one pair must share a
// metric space).
func scenarioWithDims(seed uint64, dims int) oracle.Scenario {
	for {
		sc := oracle.GenScenario(seed)
		if len(sc.Points[0]) == dims {
			return sc
		}
		seed++
	}
}

// checkDisplacement compares Displacement(a, b) cell by cell with the
// brute-force reference.
func checkDisplacement(t *testing.T, what string, a, b *Frame) {
	t.Helper()
	got := Displacement(a, b, Config{})
	want := oracle.Displacement(a.Norm, a.Labels, a.NumClusters,
		b.Norm, b.Labels, b.NumClusters, 0.05)
	if len(got.P) != len(want) {
		t.Fatalf("%s: matrix has %d rows, oracle %d", what, len(got.P), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got.P[i][j] != want[i][j] {
				t.Fatalf("%s: P[%d][%d] = %v, oracle says %v (aK=%d bK=%d)",
					what, i, j, got.P[i][j], want[i][j], a.NumClusters, b.NumClusters)
			}
		}
	}
}

// labelledFrame wraps points with given labels (0 = noise) as a Frame.
func labelledFrame(idx int, pts [][]float64, labels []int) *Frame {
	k := 0
	for _, l := range labels {
		k = max(k, l)
	}
	return &Frame{Index: idx, Norm: pts, Labels: labels, NumClusters: k}
}

// clumpedFrames builds the pair shape trackd serves: frame b holds 2–5
// clumps narrower than eps (0.07), labelled by DBSCAN as in the pipeline,
// and frame a holds the same clumps displaced by up to 0.05 plus scattered
// queries between them, so most queries fall clearly into one box and a
// few land between or inside several.
func clumpedFrames(seed uint64, dims int) (a, b *Frame) {
	rng := rand.New(rand.NewPCG(seed, 0xd15b1a))
	const eps = 0.07
	var bPts, aPts [][]float64
	var aLbl []int
	k := 2 + rng.IntN(4)
	for c := 1; c <= k; c++ {
		centre := make([]float64, dims)
		shift := make([]float64, dims)
		for d := range centre {
			centre[d] = 0.1 + 0.8*rng.Float64()
			shift[d] = 0.05 * (2*rng.Float64() - 1)
		}
		h := eps * (0.02 + 0.15*rng.Float64()) // half-width, below eps/2
		for m, size := 0, 20+rng.IntN(200); m < size; m++ {
			p, q := make([]float64, dims), make([]float64, dims)
			for d := range p {
				p[d] = centre[d] + h*(2*rng.Float64()-1)
				q[d] = centre[d] + shift[d] + h*(2*rng.Float64()-1)
			}
			bPts = append(bPts, p)
			aPts = append(aPts, q)
			aLbl = append(aLbl, c)
		}
	}
	for o, n := 0, rng.IntN(40); o < n; o++ {
		q := make([]float64, dims)
		for d := range q {
			q[d] = rng.Float64()
		}
		aPts = append(aPts, q)
		aLbl = append(aLbl, 1+rng.IntN(k))
	}
	rng.Shuffle(len(bPts), func(i, j int) { bPts[i], bPts[j] = bPts[j], bPts[i] })
	return labelledFrame(0, aPts, aLbl), labelledFrame(1, bPts, cluster.DBSCAN(bPts, eps, 5))
}

// latticeFrames snaps every coordinate to multiples of 1/64 and labels
// frame b by planted clump, not by DBSCAN. Clump centres come from a set
// of three lattice points, so clumps coincide; half of them collapse onto
// their centre. This makes the ties the label bound must leave to the
// exact search common: queries equidistant from two clusters, queries on
// a box face or inside overlapping boxes, and points shared by two
// clusters (which DBSCAN never labels apart), where a query at the shared
// point has U = L = 0 and only the lowest point index decides.
func latticeFrames(seed uint64, dims int) (a, b *Frame) {
	rng := rand.New(rand.NewPCG(seed, 0x1a771ce))
	const step = 1.0 / 64
	snap := func(v float64) float64 { return math.Round(v/step) * step }
	centres := make([][]float64, 3)
	for i := range centres {
		centres[i] = make([]float64, dims)
		for d := range centres[i] {
			centres[i][d] = float64(8+rng.IntN(48)) * step
		}
	}
	var bPts [][]float64
	var bLbl []int
	k := 2 + rng.IntN(4)
	for c := 1; c <= k; c++ {
		centre := centres[rng.IntN(len(centres))]
		spread := 0.0
		if rng.IntN(2) == 0 {
			spread = float64(1+rng.IntN(3)) * step
		}
		for m, size := 0, 1+rng.IntN(30); m < size; m++ {
			p := make([]float64, dims)
			for d := range p {
				p[d] = snap(centre[d] + spread*(2*rng.Float64()-1))
			}
			bPts = append(bPts, p)
			bLbl = append(bLbl, c)
		}
	}
	perm := rng.Perm(len(bPts))
	pts, lbl := make([][]float64, len(bPts)), make([]int, len(bPts))
	for i, j := range perm {
		pts[i], lbl[i] = bPts[j], bLbl[j]
	}
	// Queries: b's own points, near copies of them and free lattice points.
	var aPts [][]float64
	var aLbl []int
	for n := 60 + rng.IntN(60); len(aPts) < n; {
		q := make([]float64, dims)
		switch r := rng.IntN(3); r {
		case 0:
			copy(q, pts[rng.IntN(len(pts))])
		case 1:
			for d, v := range pts[rng.IntN(len(pts))] {
				q[d] = snap(v + float64(rng.IntN(7)-3)*step)
			}
		default:
			for d := range q {
				q[d] = float64(rng.IntN(65)) * step
			}
		}
		aPts = append(aPts, q)
		aLbl = append(aLbl, 1+rng.IntN(3))
	}
	return labelledFrame(0, aPts, aLbl), labelledFrame(1, pts, lbl)
}

func TestOracleDisplacementDifferential(t *testing.T) {
	for seed := uint64(0); seed < 40; seed++ {
		scA := oracle.GenScenario(seed)
		dims := len(scA.Points[0])
		scB := scenarioWithDims(seed+1000, dims)
		a := frameFromScenario(0, scA)
		b := frameFromScenario(1, scB)
		checkDisplacement(t, fmt.Sprintf("seed %d", seed), a, b)
	}
	for seed := uint64(0); seed < 40; seed++ {
		for _, dims := range []int{2, 3} {
			a, b := clumpedFrames(seed, dims)
			checkDisplacement(t, fmt.Sprintf("clumped %d-D seed %d", dims, seed), a, b)
			a, b = latticeFrames(seed, dims)
			checkDisplacement(t, fmt.Sprintf("lattice %d-D seed %d", dims, seed), a, b)
		}
	}
}

// FuzzDisplacementDifferential checks the oracle scenario pair of every
// seed, and one third of the seeds each also a clumped or a lattice pair.
func FuzzDisplacementDifferential(f *testing.F) {
	for seed := uint64(0); seed < 6; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		scA := oracle.GenScenario(seed)
		scB := scenarioWithDims(seed+1000, len(scA.Points[0]))
		a := frameFromScenario(0, scA)
		b := frameFromScenario(1, scB)
		checkDisplacement(t, fmt.Sprintf("seed %d", seed), a, b)
		dims := 2 + int(seed/3%2)
		switch seed % 3 {
		case 1:
			a, b = clumpedFrames(seed, dims)
			checkDisplacement(t, fmt.Sprintf("clumped %d-D seed %d", dims, seed), a, b)
		case 2:
			a, b = latticeFrames(seed, dims)
			checkDisplacement(t, fmt.Sprintf("lattice %d-D seed %d", dims, seed), a, b)
		}
	})
}
