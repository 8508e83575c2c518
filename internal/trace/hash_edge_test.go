package trace

import (
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"testing"

	"perftrack/internal/metrics"
)

// Edge-case pinning for the canonical hash. The perfdb store keys results
// by this fingerprint across daemon restarts and releases, so the hash is
// a persistent on-disk format: any encoding change silently orphans every
// stored result. These goldens freeze the exact bytes for the float
// encodings most likely to drift (NaN payloads, signed zero, subnormals)
// and the empty-input degenerate cases. If one of these tests fails, the
// hash changed — that needs a key-version bump, not a golden update.

// edgeTrace is a minimal fixture whose first counter carries the edge
// value under test.
func edgeTrace(c0 float64) *Trace {
	return &Trace{
		Meta: Metadata{App: "edge", Label: "e1", Ranks: 1},
		Bursts: []Burst{{Task: 0, StartNS: 1, DurationNS: 2,
			Stack:    CallstackRef{Function: "f", File: "f.c", Line: 1},
			Counters: metrics.CounterVector{c0, 2, 3, 4, 5, 6}}},
	}
}

// TestCanonicalHashGoldenEdgeValues pins the hash for IEEE-754 edge
// values. Floats are hashed by bit pattern, so every one of these is a
// distinct input: the two NaNs differ only in payload bits, the zeros
// only in sign, and the subnormal is the smallest representable double.
func TestCanonicalHashGoldenEdgeValues(t *testing.T) {
	cases := []struct {
		name string
		c0   float64
		want string
	}{
		{"one", 1.0, "66d95a7aec48c68510cdbe3ead0b0d7b9c6ecba7353a89bf3c89e30ef114cde0"},
		{"qnan", math.NaN(), "aae0a2e9dd654486c24441627532aed7b530c18acf1fa51600d202326545cdb9"},
		{"nan-payload", math.Float64frombits(0x7ff8000000000000 | 0xbeef), "067f5ebefdc5d2fe6978a6f32d74c8f069da2354b090985f93977dd0bac209c2"},
		{"pos-zero", 0.0, "20dac07746deeac342a0d4d4264a33e6c553dfb0f28e0332d9707877da1b99f6"},
		{"neg-zero", math.Copysign(0, -1), "35688c56fb5470a80ee33794d35db78c98f55f3c76d78e1439029dc3d51d9bb5"},
		{"subnormal-min", math.Float64frombits(1), "93b77896b16700f5bc81e443c5765db88983cf82c58927993b3fb90d554db2ac"},
		{"normal-min", math.Float64frombits(0x0010000000000000), "c9a49598c128150cfca8dbc15b6875e47021d10a2aa7aaee70f8a238e3fece7d"},
	}
	seen := map[string]string{}
	for _, tc := range cases {
		h := edgeTrace(tc.c0).CanonicalHash()
		got := hex.EncodeToString(h[:])
		if got != tc.want {
			t.Errorf("%s: hash %s, want pinned %s", tc.name, got, tc.want)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s collides with %s", tc.name, prev)
		}
		seen[got] = tc.name
	}
}

// TestCanonicalHashNaNPayloadsDistinguish: two NaNs with different
// payload bits are different inputs (bit-pattern hashing), while the
// same NaN hashes identically across calls.
func TestCanonicalHashNaNPayloadsDistinguish(t *testing.T) {
	a := edgeTrace(math.Float64frombits(0x7ff8000000000001))
	b := edgeTrace(math.Float64frombits(0x7ff8000000000002))
	if a.CanonicalHash() == b.CanonicalHash() {
		t.Error("NaNs with distinct payloads hash equal")
	}
	if a.CanonicalHash() != edgeTrace(math.Float64frombits(0x7ff8000000000001)).CanonicalHash() {
		t.Error("identical NaN payload hashes unstable")
	}
}

// TestCanonicalHashEmptyVsMissingBursts: a nil burst slice and an empty
// one are the same canonical input (both encode a zero count) — pinned,
// because store keys must not depend on which of the two a decoder
// happens to produce.
func TestCanonicalHashEmptyVsMissingBursts(t *testing.T) {
	const want = "154b57f4d4788ef0fbc189c284b7a479c6d84b8e2b22e21ab790ee6dc178641f"
	nilBursts := &Trace{Meta: Metadata{App: "edge", Label: "e1", Ranks: 1}}
	emptyBursts := &Trace{Meta: Metadata{App: "edge", Label: "e1", Ranks: 1}, Bursts: []Burst{}}
	hn := nilBursts.CanonicalHash()
	he := emptyBursts.CanonicalHash()
	if hn != he {
		t.Error("nil and empty burst slices hash differently")
	}
	if got := hex.EncodeToString(hn[:]); got != want {
		t.Errorf("empty-trace hash %s, want pinned %s", got, want)
	}
}

// TestHashSequenceEmptyPinned: the empty sequence has its own pinned
// fingerprint, identical for nil and empty slices and distinct from any
// member hash.
func TestHashSequenceEmptyPinned(t *testing.T) {
	const want = "4e14be57bfa62caae977154a9154842726cc261aa226e50063720a30928b00a8"
	hn := HashSequence(nil)
	he := HashSequence([]*Trace{})
	if hn != he {
		t.Error("nil and empty sequences hash differently")
	}
	if got := hex.EncodeToString(hn[:]); got != want {
		t.Errorf("empty-sequence hash %s, want pinned %s", got, want)
	}
	one := HashSequence([]*Trace{edgeTrace(1)})
	if one == hn {
		t.Error("one-trace sequence collides with the empty sequence")
	}
}

// flushTrace is a fixture whose canonical encoding is several times the
// hash's write buffer: non-empty params, 3,000 bursts of varied fields
// and one function name longer than a whole buffer, so a fingerprint
// computed through a buffer must flush it mid-field and at the end.
func flushTrace() *Trace {
	t := &Trace{Meta: Metadata{
		App: "flush", Label: "f1", Ranks: 24, TasksPerNode: 6,
		Machine: "mn4", Compiler: "icc",
		Params: map[string]string{"class": "C", "seed": "17", "": "empty-key"},
	}}
	long := strings.Repeat("operator()<std::vector<double>>::", 1500) // 49,500 bytes
	for i := 0; i < 3000; i++ {
		fn := fmt.Sprintf("region_%d", i%37)
		if i == 1234 {
			fn = long
		}
		file := ""
		if i%5 != 0 {
			file = fmt.Sprintf("src/mod%d.f90", i%11)
		}
		t.Bursts = append(t.Bursts, Burst{
			Task: i % 24, Thread: i % 2, StartNS: int64(i) * 1_000, DurationNS: int64(500 + i%97),
			Stack: CallstackRef{Function: fn, File: file, Line: i % 400},
			Phase: i % 4,
			Counters: metrics.CounterVector{float64(i) * 1.5, math.Float64frombits(0x7ff8000000000000 | uint64(i)),
				float64(i % 13), -float64(i % 7), math.Copysign(0, -1), 1 / float64(i+1)},
		})
	}
	return t
}

// TestCanonicalHashGoldenMultiFlush pins the hash of an encoding that
// spans many buffer flushes, one field longer than the buffer included.
// The one-burst goldens above fit in a single write and cannot see a
// flush that drops, repeats or reorders bytes.
func TestCanonicalHashGoldenMultiFlush(t *testing.T) {
	const (
		want    = "edce43b02dce2175e7023fc2e95e58e800566b14fd17520e56c8c0df88904f40"
		wantSeq = "a9f8f36b8dfe8e4f102ad329b6802485766a37be7ee529dbbf777ed3d10c4d7b"
	)
	tr := flushTrace()
	h := tr.CanonicalHash()
	if got := hex.EncodeToString(h[:]); got != want {
		t.Errorf("multi-flush hash %s, want pinned %s", got, want)
	}
	s := HashSequence([]*Trace{tr, edgeTrace(1), tr})
	if got := hex.EncodeToString(s[:]); got != wantSeq {
		t.Errorf("multi-flush sequence hash %s, want pinned %s", got, wantSeq)
	}
}
