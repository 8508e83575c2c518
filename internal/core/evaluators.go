package core

import (
	"math"
	"sort"

	"perftrack/internal/align"
	"perftrack/internal/cluster"
	"perftrack/internal/trace"
)

// This file implements the four heuristic evaluators of Section 3. Each
// produces one or more correlation matrices; the combiner (tracker.go)
// merges, prunes and refines their findings.

// Displacement implements the evaluator of Section 3.1: a cross
// classification of every computing burst of frame a onto the objects of
// frame b based on a nearest-neighbour criterion in the (cross-series
// normalised) performance space. Cell (i, j) is the fraction of bursts of
// object A_i whose nearest clustered burst of b belongs to B_j — the
// paper's Figure 3.
//
// Only the label of the nearest burst matters, so most queries never look
// for the burst itself: the bounding boxes of b's clusters settle the
// label whenever one box is strictly nearer than every other can be (see
// labelBoxes). The rest, ties and near-ties included, ask the exact
// nearest-neighbour index, whose lowest-index tie-break decides them.
func Displacement(a, b *Frame, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("displacement", a.Index, b.Index, a.NumClusters, b.NumClusters)
	// Index only the clustered points of b, packed into one strided flat
	// array so the NN index needs no per-point boxing.
	dims := 0
	if len(b.Norm) > 0 {
		dims = len(b.Norm[0])
	}
	x := make([]float64, 0, len(b.Labels)*dims)
	lbl := make([]int, 0, len(b.Labels))
	for i, l := range b.Labels {
		if l > 0 {
			x = append(x, b.Norm[i]...)
			lbl = append(lbl, l)
		}
	}
	if len(lbl) == 0 || a.NumClusters == 0 {
		return m
	}
	boxes := newLabelBoxes(x, lbl, dims, b.NumClusters)
	var nn *cluster.NN // built on the first query the boxes cannot settle
	counts := make([]float64, a.NumClusters+1)
	for i, la := range a.Labels {
		if la <= 0 {
			continue
		}
		lb := boxes.label(a.Norm[i])
		if lb == 0 {
			if nn == nil {
				nn = cluster.NewNNFlat(x, dims, nnCell)
			}
			j, _ := nn.Nearest(a.Norm[i])
			if j < 0 {
				continue
			}
			lb = lbl[j]
		}
		m.P[la][lb]++
		counts[la]++
	}
	for i := 1; i <= a.NumClusters; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			m.P[i][j] /= counts[i]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// nnCell is the grid cell size for nearest-neighbour classification in the
// normalised unit square.
const nnCell = 0.05

// boxSlack is the relative margin by which a box's upper bound must clear
// every other box's lower bound. It covers a multiply-add the compiler may
// fuse in one distance expression and not in the other; it can only send
// more queries to the exact search, never change an answer.
const boxSlack = 1e-12

// labelBoxes holds the bounding box of every non-empty cluster of a
// frame's clustered points, and settles a query's nearest label from the
// boxes alone when one cluster is certainly nearest. For a query q and a
// box j it computes L_j and U_j, the least and the greatest squared
// distance from q to any point of the box, with the expression
// cluster.NN uses for a point (Σ(p[d]-q[d])² in dimension order).
// Rounding of p[d]-q[d] is monotone in p[d], and so are the squares and
// the running sum, so every member p of cluster j has a computed distance
// within [L_j, U_j]. If U_j·(1+boxSlack) < L_k strictly for every other
// cluster k, the nearest member of j is strictly nearer than every member
// of k, so j is the label the exact search would return.
type labelBoxes struct {
	dims   int
	lo, hi []float64 // box of cluster j at [j*dims, (j+1)*dims)
	labels []int     // the non-empty clusters, ascending
	lower  []float64 // scratch: L_k per entry of labels
}

// newLabelBoxes builds the boxes of the clusters of the strided points x
// (labels lbl, 1..k). It returns nil, which settles nothing, when any
// coordinate is NaN or infinite.
func newLabelBoxes(x []float64, lbl []int, dims, k int) *labelBoxes {
	bx := &labelBoxes{
		dims: dims,
		lo:   make([]float64, (k+1)*dims),
		hi:   make([]float64, (k+1)*dims),
	}
	seen := make([]bool, k+1)
	for i, l := range lbl {
		p := x[i*dims : (i+1)*dims]
		lo, hi := bx.lo[l*dims:(l+1)*dims], bx.hi[l*dims:(l+1)*dims]
		if !seen[l] {
			seen[l] = true
			copy(lo, p)
			copy(hi, p)
		}
		for d, v := range p {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil
			}
			lo[d] = min(lo[d], v)
			hi[d] = max(hi[d], v)
		}
	}
	for l := 1; l <= k; l++ {
		if seen[l] {
			bx.labels = append(bx.labels, l)
		}
	}
	bx.lower = make([]float64, len(bx.labels))
	return bx
}

// label returns the label of q's nearest clustered point when the boxes
// settle it, and 0 when only the exact search can.
func (bx *labelBoxes) label(q []float64) int {
	if bx == nil {
		return 0
	}
	best, bestU := -1, math.Inf(1)
	for e, l := range bx.labels {
		lo, hi := bx.lo[l*bx.dims:(l+1)*bx.dims], bx.hi[l*bx.dims:(l+1)*bx.dims]
		var lsq, usq float64
		for d, qd := range q[:bx.dims] {
			dl, dh := lo[d]-qd, hi[d]-qd
			var near float64 // the member-side difference nearest zero
			switch {
			case dl > 0:
				near = dl
			case dh < 0:
				near = dh
			}
			far := max(math.Abs(dl), math.Abs(dh))
			lsq += near * near
			usq += far * far
		}
		bx.lower[e] = lsq
		if usq < bestU {
			best, bestU = e, usq
		}
	}
	if best < 0 {
		return 0
	}
	bound := bestU * (1 + boxSlack)
	for e, lsq := range bx.lower {
		if e != best && !(bound < lsq) {
			return 0
		}
	}
	return bx.labels[best]
}

// taskSequences extracts the chronological cluster-id sequence of every
// task of the frame (noise bursts skipped), sampling at most sample tasks
// with a uniform stride to bound alignment cost.
func taskSequences(f *Frame, sample int) [][]int {
	perTask := f.Trace.PerTaskSequences()
	tasks := make([]int, 0, len(perTask))
	for t := range perTask {
		tasks = append(tasks, t)
	}
	sort.Ints(tasks)
	if sample > 0 && len(tasks) > sample {
		// A contiguous block of tasks, not a strided one: strides alias
		// with rank-modulo behaviour patterns (e.g. odd/even kernel
		// variants) and would sample a single behaviour mode.
		tasks = tasks[:sample]
	}
	seqs := make([][]int, 0, len(tasks))
	for _, t := range tasks {
		var s []int
		for _, bi := range perTask[t] {
			if l := f.Labels[bi]; l > 0 {
				s = append(s, l)
			}
		}
		seqs = append(seqs, s)
	}
	return seqs
}

// frameAlignment computes the star multiple alignment of the frame's
// per-task cluster sequences.
func frameAlignment(f *Frame, cfg Config) *align.Alignment {
	seqs := taskSequences(f, cfg.SPMDTaskSample)
	return align.Star(seqs, align.DefaultScoring())
}

// FrameAlignment exposes the per-frame star alignment (Fig. 4 style
// analyses and SPMD-ness checks outside the tracker).
func FrameAlignment(f *Frame, cfg Config) *align.Alignment {
	return frameAlignment(f, cfg.withDefaults())
}

// SPMDSimultaneity implements the evaluator of Section 3.2: it aligns the
// per-task cluster sequences of one experiment and reports, for every pair
// of distinct clusters, the probability of being executed at the same time
// by different processes. Row and column frame are the same frame.
func SPMDSimultaneity(f *Frame, al *align.Alignment, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("spmd", f.Index, f.Index, f.NumClusters, f.NumClusters)
	if f.NumClusters == 0 || al.Columns() == 0 {
		return m
	}
	co := al.CoOccurrence(f.NumClusters + 1)
	for i := 1; i <= f.NumClusters; i++ {
		for j := 1; j <= f.NumClusters; j++ {
			m.P[i][j] = co[i][j]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// SPMDPairs extracts the simultaneous cluster pairs of a frame: pairs
// whose reciprocal co-occurrence meets the SPMD threshold.
func SPMDPairs(m *Matrix, cfg Config) [][2]int {
	cfg = cfg.withDefaults()
	var out [][2]int
	for i := 1; i <= m.Rows(); i++ {
		for j := i + 1; j <= m.Cols(); j++ {
			if m.At(i, j) >= cfg.SPMDThreshold && m.At(j, i) >= cfg.SPMDThreshold {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// Callstack implements the evaluator of Section 3.3: cell (i, j) is the
// fraction of bursts of A_i whose call-stack reference also appears among
// the references of B_j. Relations with no code reference in common cannot
// be equivalent; the combiner uses this matrix as a veto.
func Callstack(a, b *Frame, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("callstack", a.Index, b.Index, a.NumClusters, b.NumClusters)
	for i := 1; i <= a.NumClusters; i++ {
		ai := a.Clusters[i]
		if ai == nil || ai.Size == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			bj := b.Clusters[j]
			if bj == nil {
				continue
			}
			var shared int
			for st, n := range ai.Stacks {
				if _, ok := bj.Stacks[st]; ok {
					shared += n
				}
			}
			m.P[i][j] = float64(shared) / float64(ai.Size)
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// hasStacks reports whether any cluster of the frame carries call-stack
// information; traces captured without references disable the veto.
func hasStacks(f *Frame) bool {
	for _, ci := range f.Clusters[1:] {
		if ci != nil && len(ci.Stacks) > 0 {
			return true
		}
	}
	return false
}

// stacksDisjoint reports whether clusters ai of a and bj of b share no
// call-stack reference (the veto condition). It returns false when either
// side has no stack info, since absence of evidence must not veto.
func stacksDisjoint(a, b *Frame, ai, bj int) bool {
	ca, cb := a.Cluster(ai), b.Cluster(bj)
	if ca == nil || cb == nil || len(ca.Stacks) == 0 || len(cb.Stacks) == 0 {
		return false
	}
	for st := range ca.Stacks {
		if _, ok := cb.Stacks[st]; ok {
			return false
		}
	}
	return true
}

// sharedStack reports whether two clusters of the same frame share a
// reference (used to sanity-check SPMD merges).
func sharedStack(f *Frame, i, j int) bool {
	return !stacksDisjoint(f, f, i, j)
}

// SequenceCorrelate implements the evaluator of Section 3.4: the global
// consensus execution sequences of frames a and b are aligned using the
// already-established relations as pivots, and clusters falling into
// matching positions between pivots are correlated. pivotsA/pivotsB map
// cluster ids to a shared relation identifier (>=1); clusters absent from
// the maps are the unknowns the evaluator tries to bind. Cell (i, j) is
// the fraction of occurrences of A-cluster i aligned opposite B-cluster j.
func SequenceCorrelate(a, b *Frame, seqA, seqB []int, pivotsA, pivotsB map[int]int, cfg Config) *Matrix {
	cfg = cfg.withDefaults()
	m := NewMatrix("sequence", a.Index, b.Index, a.NumClusters, b.NumClusters)
	if len(seqA) == 0 || len(seqB) == 0 {
		return m
	}
	// Encode both sequences into a shared symbol space: pivots map to
	// their relation id; unknowns get frame-disjoint symbols so they can
	// never spuriously match each other during alignment.
	const (
		baseA = 1_000_000
		baseB = 2_000_000
	)
	encA := make([]int, len(seqA))
	for i, c := range seqA {
		if r, ok := pivotsA[c]; ok {
			encA[i] = r
		} else {
			encA[i] = baseA + c
		}
	}
	encB := make([]int, len(seqB))
	for i, c := range seqB {
		if r, ok := pivotsB[c]; ok {
			encB[i] = r
		} else {
			encB[i] = baseB + c
		}
	}
	ra, rb, _ := align.Pairwise(encA, encB, align.DefaultScoring())
	counts := make([]float64, a.NumClusters+1)
	for t := range ra {
		sa, sb := ra[t], rb[t]
		if sa >= baseA && sa < baseB {
			ca := sa - baseA
			counts[ca]++
			if sb >= baseB {
				m.P[ca][sb-baseB]++
			}
		}
	}
	for i := 1; i <= a.NumClusters; i++ {
		if counts[i] == 0 {
			continue
		}
		for j := 1; j <= b.NumClusters; j++ {
			m.P[i][j] /= counts[i]
		}
	}
	m.Threshold(cfg.MinCorrelation)
	return m
}

// StackTable summarises, per call-stack reference, which clusters of each
// frame contain bursts pointing at it — the paper's Table 1. Keys are
// references present in either frame.
func StackTable(a, b *Frame) map[trace.CallstackRef][2][]int {
	out := map[trace.CallstackRef][2][]int{}
	collect := func(f *Frame, side int) {
		for id := 1; id <= f.NumClusters; id++ {
			ci := f.Clusters[id]
			if ci == nil {
				continue
			}
			for st := range ci.Stacks {
				e := out[st]
				e[side] = append(e[side], id)
				out[st] = e
			}
		}
	}
	collect(a, 0)
	collect(b, 1)
	for st, e := range out {
		sort.Ints(e[0])
		sort.Ints(e[1])
		out[st] = e
	}
	return out
}
