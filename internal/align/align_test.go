package align

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestPairwiseIdentical(t *testing.T) {
	a := []int{1, 2, 3, 4}
	ra, rb, score := Pairwise(a, a, DefaultScoring())
	if !reflect.DeepEqual(ra, a) || !reflect.DeepEqual(rb, a) {
		t.Errorf("identical alignment changed sequences: %v %v", ra, rb)
	}
	if score != 8 { // 4 matches x 2
		t.Errorf("score = %v, want 8", score)
	}
}

func TestPairwiseGap(t *testing.T) {
	ra, rb, _ := Pairwise([]int{1, 2, 3}, []int{1, 3}, DefaultScoring())
	if len(ra) != len(rb) {
		t.Fatal("aligned lengths differ")
	}
	// 2 must align against a gap.
	found := false
	for i := range ra {
		if ra[i] == 2 && rb[i] == Gap {
			found = true
		}
	}
	if !found {
		t.Errorf("expected 2/gap column: %v %v", ra, rb)
	}
	// 1 and 3 align to themselves.
	for i := range ra {
		if ra[i] != Gap && rb[i] != Gap && ra[i] != rb[i] {
			t.Errorf("column %d mismatched: %v %v (non-gap columns must all match)", i, ra, rb)
		}
	}
}

func TestPairwiseEmpty(t *testing.T) {
	ra, rb, score := Pairwise(nil, []int{1, 2}, DefaultScoring())
	if len(ra) != 2 || ra[0] != Gap || ra[1] != Gap {
		t.Errorf("empty-vs-seq: %v", ra)
	}
	if !reflect.DeepEqual(rb, []int{1, 2}) {
		t.Errorf("rb = %v", rb)
	}
	if score != -2 {
		t.Errorf("score = %v", score)
	}
}

func TestPairwiseMismatchPreferredOverDoubleGap(t *testing.T) {
	// With mismatch -1 and gap -1, aligning [1] with [2] takes the
	// diagonal (one mismatch, -1) instead of two gaps (-2).
	ra, rb, score := Pairwise([]int{1}, []int{2}, DefaultScoring())
	if len(ra) != 1 || ra[0] != 1 || rb[0] != 2 {
		t.Errorf("alignment = %v %v", ra, rb)
	}
	if score != -1 {
		t.Errorf("score = %v", score)
	}
}

func TestPairwisePreservesSubsequences(t *testing.T) {
	f := func(seed uint64, la, lb uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 7))
		a := make([]int, int(la)%30)
		b := make([]int, int(lb)%30)
		for i := range a {
			a[i] = rng.IntN(5)
		}
		for i := range b {
			b[i] = rng.IntN(5)
		}
		ra, rb, _ := Pairwise(a, b, DefaultScoring())
		return reflect.DeepEqual(strip(ra), a) && reflect.DeepEqual(strip(rb), b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func strip(s []int) []int {
	out := []int{}
	for _, v := range s {
		if v != Gap {
			out = append(out, v)
		}
	}
	return out
}

func TestStarIdenticalSequences(t *testing.T) {
	seqs := [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}}
	al := Star(seqs, DefaultScoring())
	if al.Columns() != 3 {
		t.Fatalf("columns = %d", al.Columns())
	}
	for c := 0; c < 3; c++ {
		for k, row := range al.Rows {
			if row[c] != c+1 {
				t.Errorf("row %d column %d = %d", k, c, row[c])
			}
		}
	}
	if got := al.SPMDScore(); got != 1 {
		t.Errorf("SPMD score = %v, want 1", got)
	}
	if got := al.Consensus(); !reflect.DeepEqual(got, []int{1, 2, 3}) {
		t.Errorf("consensus = %v", got)
	}
}

func TestStarWithInsertion(t *testing.T) {
	seqs := [][]int{
		{1, 2, 3, 4},
		{1, 2, 9, 3, 4}, // the longest: becomes the centre
		{1, 2, 3, 4},
	}
	al := Star(seqs, DefaultScoring())
	if al.Columns() != 5 {
		t.Fatalf("columns = %d, want 5", al.Columns())
	}
	// Short sequences carry a gap where 9 sits.
	col := []int{al.Rows[0][2], al.Rows[1][2], al.Rows[2][2]}
	if col[1] != 9 {
		t.Errorf("centre symbol misplaced: %v", col)
	}
	if col[0] != Gap || col[2] != Gap {
		t.Errorf("gaps misplaced: %v", col)
	}
	cons := al.Consensus()
	// Majority drops nothing: 9 survives in its own column.
	if !reflect.DeepEqual(cons, []int{1, 2, 9, 3, 4}) {
		t.Errorf("consensus = %v", cons)
	}
}

func TestStarEmpty(t *testing.T) {
	al := Star(nil, DefaultScoring())
	if al.Columns() != 0 {
		t.Error("empty star should have no columns")
	}
	if al.SPMDScore() != 0 {
		t.Error("empty SPMD score should be 0")
	}
}

func TestStarRowsAlignedEqually(t *testing.T) {
	f := func(seed uint64, nSeq, length uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 13))
		ns := int(nSeq)%6 + 1
		l := int(length) % 20
		seqs := make([][]int, ns)
		for i := range seqs {
			seqs[i] = make([]int, l)
			for j := range seqs[i] {
				seqs[i][j] = rng.IntN(4)
			}
		}
		al := Star(seqs, DefaultScoring())
		// Every row has the same width and strips back to its original.
		for i, row := range al.Rows {
			if len(row) != al.Columns() {
				return false
			}
			if !reflect.DeepEqual(strip(row), seqs[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestStarRowsProjectToPairwise checks every row of a star alignment
// against its own pairwise alignment with the centre: dropping the columns
// where both the row and the centre row are gaps must give exactly
// Pairwise(centre, seq). The sequence sets draw from a pool of three, so
// duplicates (of the centre too) are common and a row sharing the wrong
// record shows.
func TestStarRowsProjectToPairwise(t *testing.T) {
	sc := DefaultScoring()
	for seed := uint64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x57a2))
		pool := [][]int{randSeq(rng, 12), randSeq(rng, 12), randSeq(rng, 12)}
		seqs := make([][]int, 1+rng.IntN(12))
		for k := range seqs {
			seqs[k] = slices.Clone(pool[rng.IntN(len(pool))])
		}
		centre := 0
		for k, s := range seqs {
			if len(s) > len(seqs[centre]) {
				centre = k
			}
		}
		al := Star(seqs, sc)
		for k, row := range al.Rows {
			var ga, gb []int
			for c, sym := range row {
				if cs := al.Rows[centre][c]; cs != Gap || sym != Gap {
					ga, gb = append(ga, cs), append(gb, sym)
				}
			}
			wa, wb := slices.Clone(seqs[centre]), slices.Clone(seqs[k])
			if k != centre {
				wa, wb, _ = Pairwise(seqs[centre], seqs[k], sc)
			}
			if !slices.Equal(ga, wa) || !slices.Equal(gb, wb) {
				t.Fatalf("seed %d row %d: projects to %v / %v, pairwise gives %v / %v",
					seed, k, ga, gb, wa, wb)
			}
		}
	}
}

func TestCoOccurrenceBimodal(t *testing.T) {
	// Half the tasks run symbol 1 where the other half runs symbol 2:
	// the SPMD signature of a rank-distributed bimodal region.
	seqs := [][]int{
		{1, 3}, {2, 3}, {1, 3}, {2, 3},
	}
	al := Star(seqs, DefaultScoring())
	co := al.CoOccurrence(4)
	if co[1][2] < 0.99 || co[2][1] < 0.99 {
		t.Errorf("bimodal pair co-occurrence = %v / %v, want ~1", co[1][2], co[2][1])
	}
	// Sequential symbols never share a column.
	if co[1][3] != 0 || co[3][1] != 0 {
		t.Errorf("sequential symbols co-occur: %v / %v", co[1][3], co[3][1])
	}
	// Symbol 3 appears on all rows of its column: self co-occurrence 1.
	if co[3][3] < 0.99 {
		t.Errorf("self co-occurrence = %v", co[3][3])
	}
}

func TestCoOccurrenceAlternating(t *testing.T) {
	// Time-alternating modes (all ranks in lockstep) never co-occur:
	// this is why HydroC's two behaviours stay separate regions.
	seqs := [][]int{
		{1, 2, 1, 2}, {1, 2, 1, 2}, {1, 2, 1, 2},
	}
	al := Star(seqs, DefaultScoring())
	co := al.CoOccurrence(3)
	if co[1][2] != 0 || co[2][1] != 0 {
		t.Errorf("alternating modes co-occur: %v / %v", co[1][2], co[2][1])
	}
}

func TestConsensusMajority(t *testing.T) {
	al := &Alignment{Rows: [][]int{
		{1, 5},
		{1, 6},
		{1, 6},
	}}
	if got := al.Consensus(); !reflect.DeepEqual(got, []int{1, 6}) {
		t.Errorf("consensus = %v", got)
	}
}

func TestConsensusSkipsAllGapColumns(t *testing.T) {
	al := &Alignment{Rows: [][]int{
		{1, Gap, 2},
		{1, Gap, 2},
	}}
	if got := al.Consensus(); !reflect.DeepEqual(got, []int{1, 2}) {
		t.Errorf("consensus = %v", got)
	}
}

func TestSPMDScorePartial(t *testing.T) {
	al := &Alignment{Rows: [][]int{
		{1, 2},
		{1, 3},
	}}
	// Column 0 agrees fully (1.0); column 1 splits (0.5).
	if got := al.SPMDScore(); got != 0.75 {
		t.Errorf("SPMD score = %v, want 0.75", got)
	}
}

func BenchmarkPairwise(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := make([]int, 200)
	c := make([]int, 200)
	for i := range a {
		a[i] = rng.IntN(12)
		c[i] = rng.IntN(12)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pairwise(a, c, DefaultScoring())
	}
}

func BenchmarkStar32Tasks(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 1))
	base := make([]int, 96)
	for i := range base {
		base[i] = i % 12
	}
	seqs := make([][]int, 32)
	for i := range seqs {
		s := append([]int(nil), base...)
		// Small per-task perturbation.
		if rng.IntN(2) == 0 && len(s) > 0 {
			s[rng.IntN(len(s))] = rng.IntN(12)
		}
		seqs[i] = s
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Star(seqs, DefaultScoring())
	}
}
