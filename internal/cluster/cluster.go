// Package cluster implements density-based clustering of CPU bursts in an
// arbitrary-dimensional performance-metric space, following the approach of
// González et al. (IPDPS'09) that the paper builds on: DBSCAN over
// per-dimension min–max-normalised metric values, with the resulting
// clusters ranked by how much execution time they explain.
//
// Clusters are the paper's trackable objects: "all CPU bursts that are
// similar with respect to these metrics get grouped into the same object".
package cluster

import (
	"fmt"
	"math"
	"sort"
)

// Noise is the label assigned to points that belong to no cluster. Cluster
// identifiers are 1-based, matching the paper's numbering.
const Noise = 0

// Algorithm names for Config.Algorithm.
const (
	// AlgoDBSCAN is the default density-based algorithm of the paper's
	// reference tool chain.
	AlgoDBSCAN = "dbscan"
	// AlgoKMeans selects the partitional baseline (k-means++ with
	// silhouette model selection) for comparison studies.
	AlgoKMeans = "kmeans"
)

// Config parametrises a clustering run.
type Config struct {
	// Algorithm selects the clusterer: AlgoDBSCAN (default) or
	// AlgoKMeans.
	Algorithm string
	// Eps is the DBSCAN neighbourhood radius in normalised space. 0 asks
	// for the k-dist heuristic.
	Eps float64
	// MinPts is the DBSCAN density threshold. 0 selects a default scaled
	// to the data size (0.5% of points, at least 4).
	MinPts int
	// MinClusterWeight drops clusters whose total weight (burst time)
	// falls below this fraction of the clustered weight; their points
	// become noise. Default 0 keeps everything.
	MinClusterWeight float64
	// MaxClusters keeps only the heaviest N clusters (0 = unlimited); the
	// paper's tool reduces the objects to "the ones considered more
	// relevant, those that represent a high percentage of the application
	// time".
	MaxClusters int
	// Interrupt, when non-nil, is polled periodically inside the
	// clustering loops; a non-nil return aborts the run with that error.
	// It is how cancelled contexts stop a long DBSCAN mid-flight instead
	// of burning CPU until completion.
	Interrupt func() error
}

func (c Config) minPts(n int) int {
	if c.MinPts > 0 {
		return c.MinPts
	}
	mp := n / 200
	if mp < 4 {
		mp = 4
	}
	return mp
}

// Result holds the outcome of clustering one point set.
type Result struct {
	// Labels assigns every input point a cluster id (1-based) or Noise.
	Labels []int
	// NumClusters is the number of clusters after filtering/renumbering.
	NumClusters int
	// Eps and MinPts record the effective parameters used.
	Eps    float64
	MinPts int
}

// Normalize min–max-normalises every dimension into [0,1] and returns the
// normalised copy plus the per-dimension ranges. Degenerate dimensions map
// to the constant 0.5.
func Normalize(points [][]float64) (normed [][]float64, mins, maxs []float64) {
	if len(points) == 0 {
		return nil, nil, nil
	}
	dims := len(points[0])
	mins = make([]float64, dims)
	maxs = make([]float64, dims)
	for d := 0; d < dims; d++ {
		mins[d] = math.Inf(1)
		maxs[d] = math.Inf(-1)
	}
	for _, p := range points {
		for d, v := range p {
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	normed = make([][]float64, len(points))
	for i, p := range points {
		q := make([]float64, dims)
		for d, v := range p {
			w := maxs[d] - mins[d]
			if w <= 0 {
				q[d] = 0.5
			} else {
				q[d] = (v - mins[d]) / w
			}
		}
		normed[i] = q
	}
	return normed, mins, maxs
}

// sqDist returns the squared Euclidean distance between a and b.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// DBSCAN labels points (already normalised to comparable scales) with the
// classic density-based algorithm. It returns 1-based cluster ids with
// Noise (0) for outliers. Deterministic: clusters are discovered in point
// order, so identical input yields identical labels.
func DBSCAN(points [][]float64, eps float64, minPts int) []int {
	x, dims := flatten(points)
	labels, _ := dbscanFlat(x, dims, eps, minPts, nil)
	return labels
}

// interruptEvery is how many units of work pass between Interrupt polls;
// frequent enough that cancellation lands within microseconds, rare
// enough to stay invisible in profiles.
const interruptEvery = 1024

// dbscanFlat is DBSCAN over strided flat storage with an optional
// interrupt hook polled every interruptEvery neighbourhood expansions, so
// a cancelled job stops mid-cluster instead of finishing the whole frame.
// An expansion only changes *open* points within eps (unvisited or noise),
// so a dequeued member with no open point in its 3^dims cells is skipped
// unscanned: the labels are those of the full algorithm (DESIGN.md §11).
// The neighbour, slot and queue buffers are reused across every
// expansion of the run, so the steady state allocates nothing per query.
func dbscanFlat(x []float64, dims int, eps float64, minPts int, interrupt func() error) ([]int, error) {
	n := 0
	if dims > 0 {
		n = len(x) / dims
	}
	labels := make([]int, n)
	if n == 0 {
		return labels, nil
	}
	const (
		unvisited = 0
		noiseMark = -1
	)
	state := make([]int, n) // 0 unvisited, -1 noise, >0 cluster id
	g := newGridIndexFlat(x, dims, eps)
	// open[s] counts the points of bucket s still unvisited or noise.
	open := make([]int32, len(g.start)-1)
	slotOf := make([]int32, n)
	for s := range open {
		open[s] = g.start[s+1] - g.start[s]
		for _, i := range g.idx[g.start[s]:g.start[s+1]] {
			slotOf[i] = int32(s)
		}
	}
	next := 0
	work := 0
	poll := func() error {
		if interrupt == nil {
			return nil
		}
		work++
		if work%interruptEvery != 0 {
			return nil
		}
		return interrupt()
	}
	neigh := make([]int, 0, 64)
	var slots []int32
	var queue []int
	// absorb gives cluster next every open point of neigh. Labelling
	// happens at ENQUEUE time so each cluster member enters the queue at
	// most once; a member queued here is dequeued exactly once for its
	// own expansion check. Dequeue-time labelling (the textbook
	// formulation) admits O(members·degree) duplicate queue entries on
	// dense data — identical labels, far more queue traffic.
	absorb := func(neigh []int) {
		for _, k := range neigh {
			switch state[k] {
			case noiseMark: // border point adopted by the cluster
			case unvisited:
				queue = append(queue, k)
			default:
				continue
			}
			state[k] = next
			open[slotOf[k]]--
		}
	}
	for i := 0; i < n; i++ {
		if state[i] != unvisited {
			continue
		}
		if err := poll(); err != nil {
			return nil, err
		}
		neigh = g.neighbors(g.point(int32(i)), neigh)
		if len(neigh) < minPts {
			state[i] = noiseMark
			continue
		}
		next++
		state[i] = next
		open[slotOf[i]]--
		queue = queue[:0]
		absorb(neigh)
		for qi := 0; qi < len(queue); qi++ {
			if err := poll(); err != nil {
				return nil, err
			}
			q := g.point(int32(queue[qi]))
			slots = g.cellSlots(q, slots)
			settled := true
			for _, s := range slots {
				settled = settled && open[s] == 0
			}
			if settled {
				continue // expanding would change nothing
			}
			neigh = neigh[:0]
			for _, s := range slots {
				neigh = g.appendNear(q, g.idx[g.start[s]:g.start[s+1]], neigh)
			}
			if len(neigh) < minPts {
				continue // border point: adopted, never expanded
			}
			absorb(neigh)
		}
	}
	for i, s := range state {
		if s == noiseMark {
			labels[i] = Noise
		} else {
			labels[i] = s
		}
	}
	return labels, nil
}

// estimateEpsFlat implements the k-dist heuristic over strided flat
// storage: it computes the distance to the k-th nearest neighbour for a
// sample of points and returns a high percentile of that distribution,
// which approximates the knee of the sorted k-dist curve.
func estimateEpsFlat(x []float64, dims, k int) float64 {
	n := 0
	if dims > 0 {
		n = len(x) / dims
	}
	if n == 0 {
		return 0.05
	}
	if k < 1 {
		k = 4
	}
	if k >= n {
		k = n - 1
	}
	if k < 1 {
		return 0.05
	}
	// Sample at most 512 points for the estimate; the heuristic is
	// insensitive to sampling and exact k-NN over everything is O(n^2).
	step := 1
	if n > 512 {
		step = n / 512
	}
	var kd []float64
	dists := make([]float64, 0, n)
	for i := 0; i < n; i += step {
		dists = dists[:0]
		pi := x[i*dims : (i+1)*dims]
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			dists = append(dists, sqDist(pi, x[j*dims:(j+1)*dims]))
		}
		sort.Float64s(dists)
		kd = append(kd, math.Sqrt(dists[k-1]))
	}
	sort.Float64s(kd)
	idx := int(0.90 * float64(len(kd)-1))
	eps := kd[idx] * 1.05
	if eps <= 0 {
		eps = 0.01
	}
	return eps
}

// Run normalises the points, clusters them and post-processes the labels:
// clusters are renumbered 1..K by decreasing total weight, clusters below
// the weight cut (or beyond MaxClusters) are folded into noise. weights
// may be nil (unit weights).
func Run(points [][]float64, weights []float64, cfg Config) (*Result, error) {
	if len(points) == 0 {
		return &Result{}, nil
	}
	dims := len(points[0])
	for i, p := range points {
		if len(p) != dims {
			return nil, fmt.Errorf("cluster: point %d has %d dims, want %d", i, len(p), dims)
		}
	}
	x, _ := flatten(points)
	return RunFlat(x, dims, weights, cfg)
}

// RunFlat is Run over strided flat storage: point i occupies
// x[i*dims:(i+1)*dims]. The pipeline feeds frames through this entry so
// burst coordinates stay in one cache-friendly backing array end to end.
func RunFlat(x []float64, dims int, weights []float64, cfg Config) (*Result, error) {
	if len(x) == 0 {
		return &Result{}, nil
	}
	if dims <= 0 || len(x)%dims != 0 {
		return nil, fmt.Errorf("cluster: flat storage of %d values is not a multiple of %d dims", len(x), dims)
	}
	n := len(x) / dims
	switch cfg.Algorithm {
	case "", AlgoDBSCAN:
		// Fall through to the density-based path below.
	case AlgoKMeans:
		return RunKMeans(boxRows(x, dims), weights, cfg, 1)
	default:
		return nil, fmt.Errorf("cluster: unknown algorithm %q", cfg.Algorithm)
	}
	normed := normalizeFlat(x, dims)
	eps := cfg.Eps
	if eps <= 0 {
		eps = estimateEpsFlat(normed, dims, cfg.minPts(n))
	}
	minPts := cfg.minPts(n)
	labels, err := dbscanFlat(normed, dims, eps, minPts, cfg.Interrupt)
	if err != nil {
		return nil, err
	}

	res := &Result{Labels: labels, Eps: eps, MinPts: minPts}
	relabelByWeight(res, weights, cfg)
	return res, nil
}

// boxRows builds a [][]float64 view whose rows alias the flat backing
// array — no per-point copying, just slice headers.
func boxRows(x []float64, dims int) [][]float64 {
	if dims <= 0 {
		return nil
	}
	n := len(x) / dims
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = x[i*dims : (i+1)*dims : (i+1)*dims]
	}
	return rows
}

// normalizeFlat is Normalize over flat storage, returning a fresh flat
// array with every dimension min–max-scaled into [0,1] (degenerate
// dimensions map to 0.5), with the same arithmetic as Normalize.
func normalizeFlat(x []float64, dims int) []float64 {
	n := len(x) / dims
	mins := make([]float64, dims)
	maxs := make([]float64, dims)
	for d := 0; d < dims; d++ {
		mins[d] = math.Inf(1)
		maxs[d] = math.Inf(-1)
	}
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := x[i*dims+d]
			if v < mins[d] {
				mins[d] = v
			}
			if v > maxs[d] {
				maxs[d] = v
			}
		}
	}
	out := make([]float64, len(x))
	for i := 0; i < n; i++ {
		for d := 0; d < dims; d++ {
			v := x[i*dims+d]
			w := maxs[d] - mins[d]
			if w <= 0 {
				out[i*dims+d] = 0.5
			} else {
				out[i*dims+d] = (v - mins[d]) / w
			}
		}
	}
	return out
}

// relabelByWeight renumbers clusters 1..K by decreasing total weight and
// applies the MinClusterWeight / MaxClusters cuts.
func relabelByWeight(res *Result, weights []float64, cfg Config) {
	weightOf := func(i int) float64 {
		if weights == nil || i >= len(weights) {
			return 1
		}
		return weights[i]
	}
	totals := map[int]float64{}
	var clusteredWeight float64
	for i, l := range res.Labels {
		if l == Noise {
			continue
		}
		w := weightOf(i)
		totals[l] += w
		clusteredWeight += w
	}
	ids := make([]int, 0, len(totals))
	for id := range totals {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if totals[ids[i]] != totals[ids[j]] {
			return totals[ids[i]] > totals[ids[j]]
		}
		return ids[i] < ids[j]
	})
	remap := map[int]int{}
	kept := 0
	for _, id := range ids {
		if cfg.MaxClusters > 0 && kept >= cfg.MaxClusters {
			remap[id] = Noise
			continue
		}
		if cfg.MinClusterWeight > 0 && clusteredWeight > 0 &&
			totals[id]/clusteredWeight < cfg.MinClusterWeight {
			remap[id] = Noise
			continue
		}
		kept++
		remap[id] = kept
	}
	for i, l := range res.Labels {
		if l == Noise {
			continue
		}
		res.Labels[i] = remap[l]
	}
	res.NumClusters = kept
}
