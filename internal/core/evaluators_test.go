package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"perftrack/internal/trace"
)

// twoFrames builds a pair of frames from two traces with the default test
// configuration.
func twoFrames(t *testing.T, a, b *trace.Trace) (*Frame, *Frame, Config) {
	t.Helper()
	cfg := testConfig()
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{a, b}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return frames[0], frames[1], cfg.withDefaults()
}

func simplePhases() []phaseDef {
	return []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2)},
	}
}

func TestDisplacementIdentity(t *testing.T) {
	// Two identical experiments: the matrix must be the identity.
	fa, fb, cfg := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	m := Displacement(fa, fb, cfg)
	for i := 1; i <= fa.NumClusters; i++ {
		j, v := m.RowArgmax(i)
		if j != i || v < 0.99 {
			t.Errorf("row %d -> col %d (%v), want identity", i, j, v)
		}
	}
}

func TestDisplacementShiftedCluster(t *testing.T) {
	// The second experiment moves phase "a" slightly in IPC: nearest
	// neighbour classification still finds it.
	shifted := simplePhases()
	shifted[0].IPC = 1.3
	fa, fb, cfg := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, shifted))
	m := Displacement(fa, fb, cfg)
	if j, _ := m.RowArgmax(1); j != 1 {
		t.Errorf("shifted cluster not matched: row 1 -> %d\n%s", j, m)
	}
}

func TestDisplacementEmptyFrames(t *testing.T) {
	fa, _, cfg := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	empty := &Frame{Index: 9, NumClusters: 0}
	m := Displacement(fa, empty, cfg)
	if len(m.NonZero()) != 0 {
		t.Error("displacement into empty frame produced cells")
	}
}

// onePointRows frames each query as its own A cluster, so row i of the
// displacement matrix is one-hot on the label query i received.
func onePointRows(queries ...[]float64) *Frame {
	lbl := make([]int, len(queries))
	for i := range lbl {
		lbl[i] = i + 1
	}
	return labelledFrame(0, queries, lbl)
}

// checkBoxLabels asserts what the label bound alone decides for each
// query (0 = left to the exact search), then that Displacement still
// matches the oracle and gives row i the label want[i].
func checkBoxLabels(t *testing.T, b *Frame, bounded, want []int, queries ...[]float64) {
	t.Helper()
	var x []float64
	var lbl []int
	for i, l := range b.Labels {
		if l > 0 {
			x = append(x, b.Norm[i]...)
			lbl = append(lbl, l)
		}
	}
	boxes := newLabelBoxes(x, lbl, len(b.Norm[0]), b.NumClusters)
	for i, q := range queries {
		if got := boxes.label(q); got != bounded[i] {
			t.Errorf("query %v: box label %d, want %d", q, got, bounded[i])
		}
	}
	a := onePointRows(queries...)
	checkDisplacement(t, "boxes", a, b)
	m := Displacement(a, b, Config{})
	for i := range queries {
		if m.P[i+1][want[i]] != 1 {
			t.Errorf("query %v: row %v, want label %d", queries[i], m.P[i+1], want[i])
		}
	}
}

func TestDisplacementBoxTieTakesFallback(t *testing.T) {
	// Cluster 2 is one point p = (0.5, 0.5), so its box gives U = 0 for a
	// query at p. Cluster 1's box [0.5, 0.6] × [0.5, 0.5] holds p on its
	// face (L = 0), and its member at p has the lower point index, so the
	// exact search answers 1. U·(1+slack) == L here: a non-strict
	// comparison would settle the query as 2.
	b := labelledFrame(1,
		[][]float64{{0.5, 0.5}, {0.6, 0.5}, {0.5, 0.5}, {0.5, 0.5}},
		[]int{1, 1, 2, 2})
	p := []float64{0.5, 0.5}
	// A tie at a positive distance: q is 0.25 from cluster 3's only point
	// and from cluster 1's member (0.25, 0.75) on its box's near face, so
	// U_3 == L_1 = 0.0625, and the lower index (cluster 1) wins.
	b2 := labelledFrame(1,
		[][]float64{{0.25, 0.75}, {-0.5, 0.85}, {0.75, 0.75}},
		[]int{1, 1, 3})
	q := []float64{0.5, 0.75}
	checkBoxLabels(t, b, []int{0}, []int{1}, p)
	checkBoxLabels(t, b2, []int{0}, []int{1}, q)
}

func TestDisplacementBoxFaceAndOverlap(t *testing.T) {
	// Cluster 1's box is [0.2, 0.4] × [0.2, 0.4] and cluster 2's is
	// [0.3, 0.6] × [0.3, 0.6]: they overlap in [0.3, 0.4]².
	b := labelledFrame(1, [][]float64{
		{0.2, 0.2}, {0.4, 0.4}, {0.35, 0.25},
		{0.3, 0.3}, {0.6, 0.6}, {0.55, 0.35},
		{0.9, 0.9}, {0.95, 0.92}, // cluster 3, far away
	}, []int{1, 1, 1, 2, 2, 2, 3, 3})
	queries := [][]float64{
		{0.4, 0.3},    // on the face x = 0.4 of box 1, inside box 2
		{0.32, 0.32},  // inside both boxes
		{0.1, 0.3},    // outside both, but box 2 may hold a nearer point
		{0.93, 0.91},  // inside box 3 only, the others far
		{0.35, 0.2},   // on the bottom face of box 1, outside box 2
		{0.61, 0.625}, // just outside box 2
		{0.3, 0.3},    // a member of 2 on the corner of box 2, inside box 1
	}
	checkBoxLabels(t, b,
		[]int{0, 0, 0, 3, 0, 0, 0},
		[]int{1, 2, 1, 3, 1, 2, 2},
		queries...)
}

func TestDisplacementNonFiniteDisablesBoxes(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := labelledFrame(1, [][]float64{
			{0.1, 0.1}, {0.12, 0.1},
			{0.8, 0.8}, {0.8, bad},
		}, []int{1, 1, 2, 2})
		var x []float64
		for _, p := range b.Norm {
			x = append(x, p...)
		}
		if bx := newLabelBoxes(x, b.Labels, 2, 2); bx != nil {
			t.Errorf("coordinate %v: boxes built, want none", bad)
		}
		a := onePointRows([]float64{0.11, 0.1}, []float64{0.79, 0.8}, []float64{0.5, 0.5})
		checkDisplacement(t, fmt.Sprintf("coordinate %v", bad), a, b)
	}
}

func TestCallstackMatrix(t *testing.T) {
	fa, fb, cfg := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	m := Callstack(fa, fb, cfg)
	// Same stacks: diagonal 100%, off-diagonal zero.
	for i := 1; i <= fa.NumClusters; i++ {
		for j := 1; j <= fb.NumClusters; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(m.At(i, j)-want) > 1e-9 {
				t.Errorf("stack[%d][%d] = %v, want %v", i, j, m.At(i, j), want)
			}
		}
	}
}

func TestCallstackSharedReference(t *testing.T) {
	// Two phases share a stack (the paper's bimodal case): both columns
	// light up for both rows.
	shared := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("same", 7)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("same", 7)},
	}
	fa, fb, cfg := twoFrames(t,
		mkTrace("x", 4, 4, shared),
		mkTrace("y", 4, 4, shared))
	m := Callstack(fa, fb, cfg)
	for i := 1; i <= 2; i++ {
		for j := 1; j <= 2; j++ {
			if m.At(i, j) < 0.99 {
				t.Errorf("shared stack cell [%d][%d] = %v", i, j, m.At(i, j))
			}
		}
	}
}

func TestStacksDisjointVeto(t *testing.T) {
	fa, fb, _ := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if !stacksDisjoint(fa, fb, 1, 2) {
		t.Error("different stacks should be disjoint")
	}
	if stacksDisjoint(fa, fb, 1, 1) {
		t.Error("same stacks reported disjoint")
	}
	// Clusters without stacks never veto.
	for _, ci := range fa.Clusters[1:] {
		ci.Stacks = map[trace.CallstackRef]int{}
	}
	if stacksDisjoint(fa, fb, 1, 2) {
		t.Error("stackless cluster vetoed")
	}
}

func TestSPMDSimultaneityBimodal(t *testing.T) {
	// Phase "b" runs in two modes split across ranks: its two clusters
	// co-occur in the alignment columns.
	phases := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.6, Instr: 4e6, Stack: stackR("b", 2), PerRank: func(r int) (float64, float64) {
			if r%2 == 0 {
				return 0.6, 4e6
			}
			return 0.45, 4e6
		}},
	}
	tr := mkTrace("x", 8, 4, phases)
	cfg := testConfig()
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := frames[0]
	if f.NumClusters != 3 {
		t.Fatalf("clusters = %d, want 3 (one phase split in two)", f.NumClusters)
	}
	al := frameAlignment(f, cfg.withDefaults())
	m := SPMDSimultaneity(f, al, cfg.withDefaults())
	pairs := SPMDPairs(m, cfg.withDefaults())
	if len(pairs) != 1 {
		t.Fatalf("SPMD pairs = %v, want exactly the bimodal pair\n%s", pairs, m)
	}
	// The pair must be the two "b" clusters — both contain phase 2.
	p := pairs[0]
	for _, id := range p {
		phasesSeen := map[int]int{}
		for i, l := range f.Labels {
			if l == id {
				phasesSeen[f.Trace.Bursts[i].Phase]++
			}
		}
		if phasesSeen[2] == 0 {
			t.Errorf("SPMD pair member %d does not hold phase 2: %v", id, phasesSeen)
		}
	}
}

func TestSPMDNoFalsePairs(t *testing.T) {
	// Sequential phases never co-occur.
	tr := mkTrace("x", 8, 4, simplePhases())
	cfg := testConfig().withDefaults()
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	al := frameAlignment(frames[0], cfg)
	m := SPMDSimultaneity(frames[0], al, cfg)
	if pairs := SPMDPairs(m, cfg); len(pairs) != 0 {
		t.Errorf("false SPMD pairs: %v\n%s", pairs, m)
	}
}

func TestSequenceCorrelateWithPivots(t *testing.T) {
	// Three phases; the middle one is the pivot. The evaluator must bind
	// the flanking clusters positionally.
	phases := []phaseDef{
		{IPC: 1.2, Instr: 1e7, Stack: stackR("a", 1)},
		{IPC: 0.8, Instr: 6e6, Stack: stackR("p", 2)},
		{IPC: 0.5, Instr: 3e6, Stack: stackR("c", 3)},
	}
	fa, fb, cfg := twoFrames(t,
		mkTrace("x", 4, 4, phases),
		mkTrace("y", 4, 4, phases))
	alA := frameAlignment(fa, cfg)
	alB := frameAlignment(fb, cfg)
	seqA, seqB := alA.Consensus(), alB.Consensus()

	// Find which cluster of each frame holds phase 2 (the pivot).
	pivotOf := func(f *Frame) int {
		for id := 1; id <= f.NumClusters; id++ {
			for i, l := range f.Labels {
				if l == id && f.Trace.Bursts[i].Phase == 2 {
					return id
				}
			}
		}
		return 0
	}
	pa, pb := pivotOf(fa), pivotOf(fb)
	m := SequenceCorrelate(fa, fb, seqA, seqB, map[int]int{pa: 1}, map[int]int{pb: 1}, cfg)

	// Every non-pivot cluster of A must bind to the B cluster holding
	// the same ground-truth phase.
	for ida := 1; ida <= fa.NumClusters; ida++ {
		if ida == pa {
			continue
		}
		j, v := m.RowArgmax(ida)
		if v < 0.9 {
			t.Errorf("cluster %d weakly bound (%v)\n%s", ida, v, m)
			continue
		}
		phaseA := majorityPhase(fa, ida)
		phaseB := majorityPhase(fb, j)
		if phaseA != phaseB {
			t.Errorf("sequence bound phase %d to phase %d", phaseA, phaseB)
		}
	}
}

func majorityPhase(f *Frame, id int) int {
	counts := map[int]int{}
	for i, l := range f.Labels {
		if l == id {
			counts[f.Trace.Bursts[i].Phase]++
		}
	}
	best, bestN := 0, 0
	for p, n := range counts {
		if n > bestN {
			best, bestN = p, n
		}
	}
	return best
}

func TestStackTable(t *testing.T) {
	fa, fb, _ := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	table := StackTable(fa, fb)
	if len(table) != 2 {
		t.Fatalf("stack table entries = %d", len(table))
	}
	for ref, e := range table {
		if len(e[0]) != 1 || len(e[1]) != 1 {
			t.Errorf("ref %v has entries %v", ref, e)
		}
	}
}

func TestHasStacks(t *testing.T) {
	fa, _, _ := twoFrames(t,
		mkTrace("x", 4, 4, simplePhases()),
		mkTrace("y", 4, 4, simplePhases()))
	if !hasStacks(fa) {
		t.Error("frame with stacks reported none")
	}
	for _, ci := range fa.Clusters[1:] {
		ci.Stacks = map[trace.CallstackRef]int{}
	}
	if hasStacks(fa) {
		t.Error("stackless frame reported stacks")
	}
}

func TestTaskSequencesSampling(t *testing.T) {
	tr := mkTrace("x", 16, 2, simplePhases())
	cfg := testConfig()
	frames, err := BuildFramesContext(context.Background(), []*trace.Trace{tr}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	seqs := taskSequences(frames[0], 4)
	if len(seqs) != 4 {
		t.Errorf("sampled %d sequences, want 4", len(seqs))
	}
	for _, s := range seqs {
		if len(s) != 4 { // 2 iterations x 2 phases
			t.Errorf("sequence length = %d, want 4", len(s))
		}
	}
	// Unlimited sampling returns every task.
	if got := len(taskSequences(frames[0], 0)); got != 16 {
		t.Errorf("unsampled sequences = %d", got)
	}
}
