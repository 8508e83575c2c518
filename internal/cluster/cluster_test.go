package cluster

import (
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

// blob generates n points normally distributed around (cx, cy).
func blob(rng *rand.Rand, n int, cx, cy, sigma float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{
			cx + rng.NormFloat64()*sigma,
			cy + rng.NormFloat64()*sigma,
		}
	}
	return out
}

func TestNormalize(t *testing.T) {
	pts := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	normed, mins, maxs := Normalize(pts)
	if mins[0] != 0 || maxs[0] != 10 || mins[1] != 10 || maxs[1] != 30 {
		t.Errorf("ranges = %v %v", mins, maxs)
	}
	if normed[0][0] != 0 || normed[2][0] != 1 || normed[1][1] != 0.5 {
		t.Errorf("normed = %v", normed)
	}
}

func TestNormalizeDegenerateDim(t *testing.T) {
	pts := [][]float64{{5, 1}, {5, 2}}
	normed, _, _ := Normalize(pts)
	if normed[0][0] != 0.5 || normed[1][0] != 0.5 {
		t.Errorf("degenerate dim should map to 0.5: %v", normed)
	}
}

func TestNormalizeEmpty(t *testing.T) {
	normed, mins, maxs := Normalize(nil)
	if normed != nil || mins != nil || maxs != nil {
		t.Error("Normalize(nil) should return nils")
	}
}

func TestDBSCANTwoBlobs(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	pts := append(blob(rng, 200, 0.2, 0.2, 0.01), blob(rng, 200, 0.8, 0.8, 0.01)...)
	labels := DBSCAN(pts, 0.05, 5)
	seen := map[int]int{}
	for _, l := range labels {
		seen[l]++
	}
	if len(seen) != 2 {
		t.Fatalf("clusters = %v, want exactly 2 (no noise)", seen)
	}
	// First blob is discovered first, so it gets id 1.
	if labels[0] != 1 || labels[350] != 2 {
		t.Errorf("label assignment: first=%d later=%d", labels[0], labels[350])
	}
	// All points of one blob share a label.
	for i := 1; i < 200; i++ {
		if labels[i] != labels[0] {
			t.Fatalf("blob 1 split at %d", i)
		}
	}
}

func TestDBSCANNoise(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	pts := blob(rng, 100, 0.5, 0.5, 0.01)
	pts = append(pts, []float64{0.05, 0.95}) // an isolated outlier
	labels := DBSCAN(pts, 0.05, 5)
	if labels[100] != Noise {
		t.Errorf("outlier labelled %d, want noise", labels[100])
	}
	if labels[0] == Noise {
		t.Error("dense point labelled noise")
	}
}

func TestDBSCANMinPtsEffect(t *testing.T) {
	// A sparse group below minPts becomes noise.
	pts := [][]float64{{0.1, 0.1}, {0.11, 0.1}, {0.12, 0.1}}
	labels := DBSCAN(pts, 0.05, 5)
	for i, l := range labels {
		if l != Noise {
			t.Errorf("point %d labelled %d, want noise with minPts=5", i, l)
		}
	}
	labels = DBSCAN(pts, 0.05, 2)
	for i, l := range labels {
		if l != 1 {
			t.Errorf("point %d labelled %d, want 1 with minPts=2", i, l)
		}
	}
}

func TestDBSCANChainCluster(t *testing.T) {
	// Density-connected chain: DBSCAN must keep it one cluster even
	// though the endpoints are far apart.
	var pts [][]float64
	for i := 0; i < 100; i++ {
		pts = append(pts, []float64{float64(i) * 0.008, 0.5})
	}
	labels := DBSCAN(pts, 0.02, 3)
	for i, l := range labels {
		if l != 1 {
			t.Fatalf("chain split: point %d labelled %d", i, l)
		}
	}
}

func TestDBSCANDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	pts := append(blob(rng, 150, 0.3, 0.3, 0.02), blob(rng, 150, 0.7, 0.7, 0.02)...)
	a := DBSCAN(pts, 0.05, 5)
	b := DBSCAN(pts, 0.05, 5)
	if !reflect.DeepEqual(a, b) {
		t.Error("DBSCAN not deterministic")
	}
}

func TestDBSCANEmpty(t *testing.T) {
	if got := DBSCAN(nil, 0.05, 5); len(got) != 0 {
		t.Error("empty input should return empty labels")
	}
}

func TestGridNeighborsMatchBruteForce(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	pts := blob(rng, 300, 0.5, 0.5, 0.2)
	const eps = 0.07
	g := newGridIndex(pts, eps)
	for qi := 0; qi < 50; qi++ {
		q := pts[qi*5]
		got := map[int]bool{}
		for _, i := range g.neighbors(q, nil) {
			got[i] = true
		}
		for i, p := range pts {
			inRange := sqDist(p, q) <= eps*eps
			if inRange != got[i] {
				t.Fatalf("query %d point %d: grid=%v brute=%v", qi, i, got[i], inRange)
			}
		}
	}
}

func TestNNMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, 9))
		n := 50 + rng.IntN(200)
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		nn := NewNN(pts, 0.05)
		for k := 0; k < 20; k++ {
			q := []float64{rng.Float64() * 1.2, rng.Float64() * 1.2}
			gotIdx, gotDist := nn.Nearest(q)
			bestIdx, bestSq := -1, math.Inf(1)
			for i, p := range pts {
				if d := sqDist(p, q); d < bestSq {
					bestIdx, bestSq = i, d
				}
			}
			if math.Abs(gotDist-math.Sqrt(bestSq)) > 1e-9 {
				return false
			}
			// Same distance; identity may differ only on exact ties.
			if gotIdx != bestIdx && sqDist(pts[gotIdx], q) != bestSq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestNNEmpty(t *testing.T) {
	nn := NewNN(nil, 0.05)
	idx, d := nn.Nearest([]float64{0, 0})
	if idx != -1 || !math.IsInf(d, 1) {
		t.Errorf("empty NN = %d, %v", idx, d)
	}
}

func TestNNFarQuery(t *testing.T) {
	pts := [][]float64{{0.5, 0.5}}
	nn := NewNN(pts, 0.05)
	idx, d := nn.Nearest([]float64{30, 30})
	if idx != 0 {
		t.Errorf("far query idx = %d", idx)
	}
	want := math.Hypot(29.5, 29.5)
	if math.Abs(d-want) > 1e-9 {
		t.Errorf("far query dist = %v, want %v", d, want)
	}
}

func TestEstimateEps(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	pts := blob(rng, 400, 0.5, 0.5, 0.02)
	x, dims := flatten(pts)
	eps := estimateEpsFlat(x, dims, 4)
	if eps <= 0 {
		t.Fatalf("eps = %v", eps)
	}
	// For a tight blob the k-dist estimate stays well below the blob
	// diameter.
	if eps > 0.1 {
		t.Errorf("eps = %v unexpectedly large", eps)
	}
	if estimateEpsFlat(nil, 0, 4) <= 0 {
		t.Error("empty estimate should fall back to a positive default")
	}
}

func TestRunRelabelsByWeight(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	// Blob A is smaller in points but carries far more weight.
	ptsA := blob(rng, 50, 0.2, 0.2, 0.01)
	ptsB := blob(rng, 200, 0.8, 0.8, 0.01)
	pts := append(append([][]float64{}, ptsA...), ptsB...)
	weights := make([]float64, len(pts))
	for i := range weights {
		if i < 50 {
			weights[i] = 100
		} else {
			weights[i] = 1
		}
	}
	res, err := Run(pts, weights, Config{Eps: 0.05, MinPts: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Fatalf("clusters = %d", res.NumClusters)
	}
	if res.Labels[0] != 1 {
		t.Errorf("heavy cluster id = %d, want 1", res.Labels[0])
	}
	if res.Labels[100] != 2 {
		t.Errorf("light cluster id = %d, want 2", res.Labels[100])
	}
}

func TestRunMinClusterWeight(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	pts := append(blob(rng, 500, 0.2, 0.2, 0.01), blob(rng, 10, 0.8, 0.8, 0.002)...)
	res, err := Run(pts, nil, Config{Eps: 0.05, MinPts: 5, MinClusterWeight: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 1 {
		t.Fatalf("clusters = %d, want 1 after weight cut", res.NumClusters)
	}
	if res.Labels[505] != Noise {
		t.Errorf("tiny cluster survived as %d", res.Labels[505])
	}
}

func TestRunMaxClusters(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	pts := append(blob(rng, 100, 0.1, 0.1, 0.01), blob(rng, 100, 0.5, 0.5, 0.01)...)
	pts = append(pts, blob(rng, 100, 0.9, 0.9, 0.01)...)
	res, err := Run(pts, nil, Config{Eps: 0.05, MinPts: 5, MaxClusters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumClusters != 2 {
		t.Errorf("clusters = %d, want capped 2", res.NumClusters)
	}
}

func TestRunDimsMismatch(t *testing.T) {
	if _, err := Run([][]float64{{1, 2}, {1}}, nil, Config{Eps: 0.1}); err == nil {
		t.Error("mismatched dims accepted")
	}
}

func TestRunEmpty(t *testing.T) {
	res, err := Run(nil, nil, Config{})
	if err != nil || res.NumClusters != 0 {
		t.Errorf("empty run = %+v, %v", res, err)
	}
}

func TestRunAutoEps(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	pts := append(blob(rng, 300, 0.2, 0.2, 0.01), blob(rng, 300, 0.8, 0.8, 0.01)...)
	res, err := Run(pts, nil, Config{}) // eps and minPts from heuristics
	if err != nil {
		t.Fatal(err)
	}
	if res.Eps <= 0 || res.MinPts <= 0 {
		t.Errorf("effective params not recorded: %+v", res)
	}
	if res.NumClusters != 2 {
		t.Errorf("auto-eps clusters = %d, want 2", res.NumClusters)
	}
}

// TestRunFlatInterrupt checks that an error from Config.Interrupt aborts
// the clustering run with that error and no result, whether it comes at
// the first poll or the last.
func TestRunFlatInterrupt(t *testing.T) {
	x, dims := flatten(clumpPoints(5000, 11))
	cfg := Config{Eps: 0.07, MinPts: 5}
	want, err := RunFlat(x, dims, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	cfg.Interrupt = func() error { polls++; return nil }
	got, err := RunFlat(x, dims, nil, cfg)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("a nil Interrupt changed the run: err %v", err)
	}
	if polls < 2 {
		t.Fatalf("Interrupt polled %d times over 5,000 points, want at least 2", polls)
	}
	stop := errors.New("stop")
	for _, k := range []int{1, polls} {
		calls := 0
		cfg.Interrupt = func() error {
			if calls++; calls == k {
				return stop
			}
			return nil
		}
		res, err := RunFlat(x, dims, nil, cfg)
		if !errors.Is(err, stop) || res != nil {
			t.Fatalf("Interrupt failing at call %d of %d: got (%v, %v), want (nil, stop)", k, polls, res, err)
		}
	}
}

func TestDBSCANLabelsAllPointsProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 3))
		n := int(nRaw)%300 + 1
		pts := make([][]float64, n)
		for i := range pts {
			pts[i] = []float64{rng.Float64(), rng.Float64()}
		}
		labels := DBSCAN(pts, 0.08, 4)
		if len(labels) != n {
			return false
		}
		maxLabel := 0
		for _, l := range labels {
			if l < 0 {
				return false
			}
			if l > maxLabel {
				maxLabel = l
			}
		}
		// Labels are contiguous 1..max.
		seen := make([]bool, maxLabel+1)
		for _, l := range labels {
			seen[l] = true
		}
		for id := 1; id <= maxLabel; id++ {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDBSCAN(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 1))
	var pts [][]float64
	for c := 0; c < 8; c++ {
		pts = append(pts, blob(rng, 2500, 0.1+0.1*float64(c), 0.1+0.1*float64(c), 0.01)...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DBSCAN(pts, 0.05, 5)
	}
}

func BenchmarkNN(b *testing.B) {
	rng := rand.New(rand.NewPCG(11, 1))
	pts := blob(rng, 20_000, 0.5, 0.5, 0.2)
	nn := NewNN(pts, 0.05)
	qs := blob(rng, 1000, 0.5, 0.5, 0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.Nearest(qs[i%len(qs)])
	}
}
