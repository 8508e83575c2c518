package cluster

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"perftrack/internal/oracle"
)

// Differential harness: the grid-accelerated DBSCAN and NN paths must
// produce answers identical to the brute-force references in
// internal/oracle on seeded random scenarios. The scenarios are lattice-
// quantised, so exact ties and points exactly on the eps boundary are
// common — any divergence from the canonical tie-break rules documented
// in nn.go shows up as a failure here, not as a silent wrong answer in a
// study. `make oracle` runs these (together with the core and align
// differential tests) as the pre-merge gate for every optimisation.

func TestOracleDBSCANDifferential(t *testing.T) {
	for seed := uint64(0); seed < 100; seed++ {
		checkDBSCAN(t, "lattice", seed, oracle.GenScenario(seed))
	}
	for seed := uint64(0); seed < 30; seed++ {
		for _, dims := range []int{2, 4} {
			checkDBSCAN(t, fmt.Sprintf("clumped %d-D", dims), seed, clumpedScenario(seed, dims))
		}
	}
}

func checkDBSCAN(t *testing.T, kind string, seed uint64, sc oracle.Scenario) {
	t.Helper()
	got := DBSCAN(sc.Points, sc.Eps, sc.MinPts)
	want := oracle.DBSCAN(sc.Points, sc.Eps, sc.MinPts)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s seed %d (n=%d eps=%v minPts=%d): label[%d] = %d, oracle says %d",
				kind, seed, len(sc.Points), sc.Eps, sc.MinPts, i, got[i], want[i])
		}
	}
}

// clumpedScenario builds the shape of the frames trackd serves: 1–5
// clumps of 200–1,500 members, each narrower than eps, so every member's
// neighbourhood is its whole clump and most expansions change nothing.
// Around the clumps it plants the points a settled neighbourhood can
// still hide:
//   - noise points 1.05–1.4 eps beyond a clump, in its own or an
//     adjacent cell, which must stay noise;
//   - between two paired clumps, a border point within eps of one core
//     "spur" of each clump and of nothing else, which the lower-numbered
//     cluster must adopt;
//   - unpaired clumps centred on cell boundaries, so they straddle cells.
//
// In half the scenarios the noise and border points come first in point
// order, so they are marked noise before any cluster reaches them.
func clumpedScenario(seed uint64, dims int) oracle.Scenario {
	rng := rand.New(rand.NewPCG(seed, 0xc1a3bed))
	eps := 0.05 + 0.01*float64(rng.IntN(4))
	minPts := 4 + rng.IntN(5)
	var members, specials [][]float64
	along := func(p []float64, d int, dx float64) []float64 {
		q := append([]float64(nil), p...)
		q[d] += dx
		return q
	}
	var prev []float64 // centre of the previous clump
	var prevH float64  // its half-width
	for c, k := 0, 1+rng.IntN(5); c < k; c++ {
		// Half-width per dimension; the diameter stays below eps in 4-D.
		h := eps * (0.05 + 0.1*rng.Float64())
		centre := make([]float64, dims)
		if prev != nil && rng.IntN(2) == 0 {
			// Pair with the previous clump along dim 0: spur, border
			// point and spur 0.9 eps apart, each spur 0.3 eps out from
			// its clump, so the border point has 3 neighbours (< minPts).
			spurA := along(prev, 0, prevH+0.3*eps)
			border := along(spurA, 0, 0.9*eps)
			spurB := along(border, 0, 0.9*eps)
			members = append(members, spurA, spurB)
			specials = append(specials, border)
			copy(centre, spurB)
			centre[0] += 0.3*eps + h
		} else {
			if prev != nil {
				centre[0] = math.Ceil((prev[0]+prevH+3*eps+h)/eps) * eps
			}
			for d := 1; d < dims; d++ {
				centre[d] = eps * float64(1+rng.IntN(4))
			}
		}
		// Sizes span 200–1,500 but lean small: the brute-force oracle
		// is quadratic in the point count.
		u := rng.Float64()
		for m, size := 0, 200+int(1300*u*u*u); m < size; m++ {
			p := make([]float64, dims)
			for d := range p {
				p[d] = centre[d] + h*(2*rng.Float64()-1)
			}
			members = append(members, p)
		}
		for o, noise := 0, rng.IntN(4); o < noise; o++ {
			// Off dim 0, so no noise point comes near a border point.
			off := h + eps*(1.05+0.35*rng.Float64())
			if rng.IntN(2) == 0 {
				off = -off
			}
			specials = append(specials, along(centre, 1+rng.IntN(dims-1), off))
		}
		prev, prevH = centre, h
	}
	shuffle := func(ps [][]float64) {
		rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	}
	if rng.IntN(2) == 0 {
		shuffle(specials)
		shuffle(members)
		return oracle.Scenario{Points: append(specials, members...), Eps: eps, MinPts: minPts}
	}
	pts := append(specials, members...)
	shuffle(pts)
	return oracle.Scenario{Points: pts, Eps: eps, MinPts: minPts}
}

func TestOracleNNDifferential(t *testing.T) {
	for seed := uint64(0); seed < 60; seed++ {
		sc := oracle.GenScenario(seed)
		dims := len(sc.Points[0])
		// Two cell sizes: the scenario's lattice-aligned eps (maximises
		// boundary coincidences) and the production nnCell value.
		for _, cell := range []float64{sc.Eps, 0.05} {
			nn := NewNN(sc.Points, cell)
			check := func(q []float64, what string) {
				gi, gd := nn.Nearest(q)
				wi, wd := oracle.Nearest(sc.Points, q)
				if gi != wi || gd != wd {
					t.Fatalf("seed %d cell %v %s: Nearest(%v) = (%d, %v), oracle says (%d, %v)",
						seed, cell, what, q, gi, gd, wi, wd)
				}
			}
			// Random queries (some outside the unit square, exercising
			// the out-of-bbox linear fallback)...
			for qi := 0; qi < 20; qi++ {
				check(oracle.GenQuery(seed, qi, dims), "query")
			}
			// ...and every indexed point as its own query: duplicates
			// make zero-distance ties, where only the index ordering
			// disambiguates.
			for i := range sc.Points {
				if i%3 == 0 {
					check(sc.Points[i], "self")
				}
			}
		}
	}
}

func TestOracleNNFarQueryFallback(t *testing.T) {
	sc := oracle.GenScenario(3)
	nn := NewNN(sc.Points, 0.01) // tiny cells force a large ring bound
	q := make([]float64, len(sc.Points[0]))
	for d := range q {
		q[d] = 50 // far outside the indexed bounding box
	}
	gi, gd := nn.Nearest(q)
	wi, wd := oracle.Nearest(sc.Points, q)
	if gi != wi || gd != wd {
		t.Fatalf("far query = (%d, %v), oracle says (%d, %v)", gi, gd, wi, wd)
	}
}

// TestOracleNNSparseOutlierRegression pins the sparse-data bug of the
// pre-bbox ring search: with cell 0.05, the old implementation stopped
// expanding at ring 81 ("r·cell > 4, and we already have a candidate"),
// returning the diagonal point at distance ~4.101 even though a closer
// point at distance 4.075 sits in ring 82. The bbox-bounded sweep (or its
// linear-scan fallback) must return the true nearest neighbour no matter
// how far the data spreads.
func TestOracleNNSparseOutlierRegression(t *testing.T) {
	pts := [][]float64{
		{2.9, 2.9},    // ring 58 from the origin cell, distance ~4.101
		{-4.075, 0.0}, // ring 82, distance 4.075 — the true nearest
	}
	q := []float64{0, 0}
	nn := NewNN(pts, 0.05)
	gi, gd := nn.Nearest(q)
	wi, wd := oracle.Nearest(pts, q)
	if wi != 1 {
		t.Fatalf("oracle sanity: nearest = %d, want 1", wi)
	}
	if gi != wi || gd != wd {
		t.Fatalf("Nearest = (%d, %v), oracle says (%d, %v)", gi, gd, wi, wd)
	}
}

func FuzzDBSCANDifferential(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkDBSCAN(t, "lattice", seed, oracle.GenScenario(seed))
		dims := 2 + 2*int(seed%2)
		checkDBSCAN(t, fmt.Sprintf("clumped %d-D", dims), seed, clumpedScenario(seed, dims))
	})
}

func FuzzNNDifferential(f *testing.F) {
	f.Add(uint64(0), 0.5, 0.5)
	f.Add(uint64(1), 0.0, 1.0)
	f.Add(uint64(2), -3.0, 7.5)
	f.Fuzz(func(t *testing.T, seed uint64, qx, qy float64) {
		if math.IsNaN(qx) || math.IsInf(qx, 0) || math.IsNaN(qy) || math.IsInf(qy, 0) {
			t.Skip("non-finite query")
		}
		sc := oracle.GenScenario(seed)
		q := make([]float64, len(sc.Points[0]))
		q[0], q[1] = qx, qy
		nn := NewNN(sc.Points, sc.Eps)
		gi, gd := nn.Nearest(q)
		wi, wd := oracle.Nearest(sc.Points, q)
		if gi != wi || gd != wd {
			t.Fatalf("seed %d: Nearest(%v) = (%d, %v), oracle says (%d, %v)", seed, q, gi, gd, wi, wd)
		}
	})
}
