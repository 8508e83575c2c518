package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
	"testing"

	"perftrack/internal/metrics"
)

// refHashWriter is the reference encoder of the canonical hash: every
// field is its own Write to the hash, exactly as the fingerprint was first
// defined. The buffered encoder in hash.go must produce the same digest
// for every input; the differential fuzz target below checks it.
type refHashWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (hw *refHashWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(hw.buf[:], v)
	hw.h.Write(hw.buf[:])
}

func (hw *refHashWriter) i64(v int64)   { hw.u64(uint64(v)) }
func (hw *refHashWriter) f64(v float64) { hw.u64(math.Float64bits(v)) }
func (hw *refHashWriter) str(s string)  { hw.u64(uint64(len(s))); hw.h.Write([]byte(s)) }
func (hw *refHashWriter) tag(b byte)    { hw.h.Write([]byte{b}) }
func (hw *refHashWriter) sum() [32]byte { var out [32]byte; hw.h.Sum(out[:0]); return out }

func refCanonicalHash(t *Trace) [32]byte {
	hw := &refHashWriter{h: sha256.New()}
	hw.tag('T')
	hw.str(t.Meta.App)
	hw.str(t.Meta.Label)
	hw.i64(int64(t.Meta.Ranks))
	hw.i64(int64(t.Meta.TasksPerNode))
	hw.str(t.Meta.Machine)
	hw.str(t.Meta.Compiler)
	keys := make([]string, 0, len(t.Meta.Params))
	for k := range t.Meta.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	hw.u64(uint64(len(keys)))
	for _, k := range keys {
		hw.str(k)
		hw.str(t.Meta.Params[k])
	}
	hw.u64(uint64(len(t.Bursts)))
	for _, b := range t.Bursts {
		hw.tag('B')
		hw.i64(int64(b.Task))
		hw.i64(int64(b.Thread))
		hw.i64(b.StartNS)
		hw.i64(b.DurationNS)
		hw.str(b.Stack.Function)
		hw.str(b.Stack.File)
		hw.i64(int64(b.Stack.Line))
		hw.i64(int64(b.Phase))
		for _, v := range b.Counters {
			hw.f64(v)
		}
	}
	return hw.sum()
}

func refHashSequence(ts []*Trace) [32]byte {
	hw := &refHashWriter{h: sha256.New()}
	hw.tag('S')
	hw.u64(uint64(len(ts)))
	for _, t := range ts {
		h := refCanonicalHash(t)
		hw.h.Write(h[:])
	}
	return hw.sum()
}

func hashFixture() *Trace {
	return &Trace{
		Meta: Metadata{
			App: "app", Label: "run-1", Ranks: 4, TasksPerNode: 2,
			Machine: "m", Compiler: "c",
			Params: map[string]string{"class": "B", "seed": "7"},
		},
		Bursts: []Burst{
			{Task: 0, StartNS: 10, DurationNS: 100,
				Stack:    CallstackRef{Function: "f", File: "f.c", Line: 3},
				Counters: metrics.CounterVector{1000, 2000, 10, 5, 1, 300}},
			{Task: 1, StartNS: 12, DurationNS: 90,
				Stack:    CallstackRef{Function: "g", File: "g.c", Line: 9},
				Counters: metrics.CounterVector{900, 1800, 12, 4, 2, 280}},
		},
	}
}

// TestCanonicalHashStable asserts the hash is a pure function of the trace
// content, independent of map iteration order.
func TestCanonicalHashStable(t *testing.T) {
	a, b := hashFixture(), hashFixture()
	for i := 0; i < 16; i++ {
		if a.CanonicalHash() != b.CanonicalHash() {
			t.Fatal("equal traces hash differently")
		}
	}
	if a.CanonicalHash() != a.Clone().CanonicalHash() {
		t.Fatal("clone hashes differently")
	}
}

// TestCanonicalHashSensitivity asserts every observable field perturbs the
// hash: the cache must never serve a result computed from different input.
func TestCanonicalHashSensitivity(t *testing.T) {
	base := hashFixture().CanonicalHash()
	mutations := map[string]func(*Trace){
		"app":          func(t *Trace) { t.Meta.App = "other" },
		"label":        func(t *Trace) { t.Meta.Label = "run-2" },
		"ranks":        func(t *Trace) { t.Meta.Ranks = 8 },
		"param-value":  func(t *Trace) { t.Meta.Params["class"] = "C" },
		"param-added":  func(t *Trace) { t.Meta.Params["extra"] = "1" },
		"burst-task":   func(t *Trace) { t.Bursts[0].Task = 3 },
		"burst-start":  func(t *Trace) { t.Bursts[0].StartNS = 11 },
		"burst-dur":    func(t *Trace) { t.Bursts[1].DurationNS = 91 },
		"burst-stack":  func(t *Trace) { t.Bursts[0].Stack.Line = 4 },
		"burst-phase":  func(t *Trace) { t.Bursts[0].Phase = 2 },
		"counter":      func(t *Trace) { t.Bursts[0].Counters[metrics.CtrCycles] = 2001 },
		"burst-order":  func(t *Trace) { t.Bursts[0], t.Bursts[1] = t.Bursts[1], t.Bursts[0] },
		"burst-gone":   func(t *Trace) { t.Bursts = t.Bursts[:1] },
		"empty-fields": func(t *Trace) { t.Bursts[0].Stack.Function, t.Bursts[0].Stack.File = "ff.c", "" },
	}
	for name, mutate := range mutations {
		tr := hashFixture()
		mutate(tr)
		if tr.CanonicalHash() == base {
			t.Errorf("mutation %q did not change the hash", name)
		}
	}
}

// TestHashSequenceOrder asserts sequence hashing is order-sensitive and
// differs from any single member's hash.
func TestHashSequenceOrder(t *testing.T) {
	a := hashFixture()
	b := hashFixture()
	b.Meta.Label = "run-2"
	ab := HashSequence([]*Trace{a, b})
	ba := HashSequence([]*Trace{b, a})
	if ab == ba {
		t.Error("sequence hash is order-insensitive")
	}
	if ab == a.CanonicalHash() || ab == HashSequence([]*Trace{a}) {
		t.Error("sequence hash collides with shorter sequences")
	}
}

// fuzzInput hands out the fuzz bytes as shape choices, reading zeros once
// they run out.
type fuzzInput []byte

func (in *fuzzInput) byte() byte {
	if len(*in) == 0 {
		return 0
	}
	b := (*in)[0]
	*in = (*in)[1:]
	return b
}

// fuzzString returns an empty, short, chunk-sized or multi-chunk string.
func fuzzString(in *fuzzInput, rng *rand.Rand) string {
	switch in.byte() % 7 {
	case 0:
		return ""
	case 1:
		return fmt.Sprintf("f%d", rng.IntN(100))
	case 2:
		return strings.Repeat("a", hashChunk-1)
	case 3:
		return strings.Repeat("b", hashChunk)
	case 4:
		return strings.Repeat("c", hashChunk+1)
	case 5:
		return strings.Repeat("d", rng.IntN(3*hashChunk))
	default:
		return strings.Repeat("e", rng.IntN(64))
	}
}

// fuzzBurstCount returns nil or empty bursts, or a count around the
// number of short bursts that fills one or two chunks.
func fuzzBurstCount(in *fuzzInput) (n int, empty bool) {
	const perChunk = hashChunk / 117 // a burst with a one-byte function and a three-byte file
	d := int(in.byte())
	switch in.byte() % 5 {
	case 0:
		return 0, false
	case 1:
		return 0, true
	case 2:
		return perChunk - 16 + d%32, true
	case 3:
		return 2*perChunk - 32 + d%64, true
	default:
		return d % 8, true
	}
}

// fuzzTraces builds up to three traces from the fuzz input: nil or empty
// params and bursts, burst counts around the flush threshold, empty and
// multi-chunk strings, and NaN payloads among the counters.
func fuzzTraces(data []byte) []*Trace {
	in := fuzzInput(data)
	var seed [16]byte
	copy(seed[:], data)
	rng := rand.New(rand.NewPCG(binary.LittleEndian.Uint64(seed[:8]), binary.LittleEndian.Uint64(seed[8:])))
	ts := make([]*Trace, int(in.byte()%4))
	for i := range ts {
		t := &Trace{Meta: Metadata{
			App: fuzzString(&in, rng), Label: fuzzString(&in, rng),
			Ranks: rng.IntN(64), TasksPerNode: rng.IntN(8) - 1,
			Machine: fuzzString(&in, rng), Compiler: fuzzString(&in, rng),
		}}
		switch p := in.byte(); p % 3 {
		case 1:
			t.Meta.Params = map[string]string{}
		case 2:
			t.Meta.Params = map[string]string{}
			for k := 0; k <= int(p/3)%4; k++ {
				t.Meta.Params[fmt.Sprintf("k%d", k)] = fuzzString(&in, rng)
			}
		}
		n, empty := fuzzBurstCount(&in)
		if empty {
			t.Bursts = make([]Burst, n)
		}
		long := -1
		if n > 0 && in.byte()%2 == 1 {
			long = rng.IntN(n)
		}
		for j := range t.Bursts {
			b := &t.Bursts[j]
			b.Task, b.Thread = rng.IntN(64), rng.IntN(4)
			b.StartNS, b.DurationNS = int64(rng.Uint64()), rng.Int64N(1e9)-1
			b.Stack = CallstackRef{Function: "f", File: "f.c", Line: rng.IntN(1000)}
			if j == long {
				b.Stack.Function, b.Stack.File = fuzzString(&in, rng), fuzzString(&in, rng)
			}
			b.Phase = rng.IntN(5)
			for c := range b.Counters {
				switch rng.IntN(4) {
				case 0:
					b.Counters[c] = math.Float64frombits(0x7ff0000000000001 | rng.Uint64()&0x800fffffffffffff)
				case 1:
					b.Counters[c] = math.Float64frombits(rng.Uint64())
				default:
					b.Counters[c] = rng.Float64() * 1e9
				}
			}
		}
		ts[i] = t
	}
	return ts
}

// FuzzCanonicalHashDifferential requires the buffered encoder to agree
// with the field-by-field reference on every trace and sequence. The
// digest keys every stored result, so any byte the encoder drops,
// repeats or reorders at a flush boundary orphans them.
func FuzzCanonicalHashDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0})                    // one trace, nil params and bursts
	f.Add([]byte{1, 1, 1, 1, 1, 1, 0, 1, 0})              // short strings, empty params and bursts
	f.Add([]byte{1, 2, 3, 4, 5, 2, 6, 6, 7, 2, 16, 2, 1}) // chunk-sized strings, params, ~a chunk of bursts
	f.Add([]byte{3, 0, 1, 0, 1, 5, 9, 3, 1, 5, 4, 1, 3, 5, 5, 3, 1, 3, 2, 2, 40, 3, 1, 4, 4})
	f.Add([]byte{1, 1, 1, 1, 1, 0, 50, 3, 1, 5, 5}) // ~two chunks of bursts, one with long strings
	f.Add([]byte{2, 5, 5, 5, 5, 8, 5, 5, 5, 31, 2, 1, 5, 2, 0, 30, 4, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ts := fuzzTraces(data)
		for i, tr := range ts {
			if got, want := tr.CanonicalHash(), refCanonicalHash(tr); got != want {
				t.Fatalf("trace %d: CanonicalHash %x, reference %x", i, got, want)
			}
		}
		if got, want := HashSequence(ts), refHashSequence(ts); got != want {
			t.Fatalf("HashSequence %x, reference %x", got, want)
		}
	})
}

// TestCanonicalHashAllocs pins the hash of a jobs-large-sized trace to a
// few allocations — the encoder, its hash and its buffer — so no
// per-field allocation can come back.
func TestCanonicalHashAllocs(t *testing.T) {
	tr := hashFixture()
	tr.Bursts = make([]Burst, 5120)
	for i := range tr.Bursts {
		tr.Bursts[i] = hashFixture().Bursts[i%2]
		tr.Bursts[i].StartNS = int64(i)
	}
	if got, want := tr.CanonicalHash(), refCanonicalHash(tr); got != want {
		t.Fatalf("CanonicalHash %x, reference %x", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { tr.CanonicalHash() }); n > 5 {
		t.Errorf("CanonicalHash of 5,120 bursts: %.0f allocs, want <= 5", n)
	}
}
