package trace

import (
	"bytes"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"perftrack/internal/metrics"
)

// strictOpts is the all-or-nothing decode most codec tests want.
var strictOpts = DecodeOptions{Strict: true}

func roundTrip(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, _, err := ReadWith(&buf, strictOpts)
	if err != nil {
		t.Fatalf("Read: %v\ninput:\n%s", err, buf.String())
	}
	return got
}

func TestCodecRoundTrip(t *testing.T) {
	tr := sampleTrace()
	tr.Bursts[0].Counters[metrics.CtrInstructions] = 12345
	tr.Bursts[0].Counters[metrics.CtrCycles] = 6789.5
	got := roundTrip(t, tr)
	if !reflect.DeepEqual(got.Meta, tr.Meta) {
		t.Errorf("meta mismatch:\n got %+v\nwant %+v", got.Meta, tr.Meta)
	}
	want := tr.Clone()
	want.SortByTaskTime()
	if !reflect.DeepEqual(got.Bursts, want.Bursts) {
		t.Errorf("bursts mismatch:\n got %+v\nwant %+v", got.Bursts, want.Bursts)
	}
}

func TestCodecQuotedFields(t *testing.T) {
	tr := sampleTrace()
	tr.Meta.App = "my app"          // space
	tr.Meta.Compiler = `icc "13.0"` // quotes
	tr.Meta.Params = map[string]string{"flags": "-O3 -g"}
	tr.Bursts[0].Stack.Function = "operator ()"
	tr.Bursts[0].Stack.File = `dir name/file.f90`
	got := roundTrip(t, tr)
	if got.Meta.App != tr.Meta.App || got.Meta.Compiler != tr.Meta.Compiler {
		t.Errorf("quoted meta mismatch: %+v", got.Meta)
	}
	if got.Meta.Params["flags"] != "-O3 -g" {
		t.Errorf("quoted param mismatch: %v", got.Meta.Params)
	}
	found := false
	for _, b := range got.Bursts {
		if b.Stack.Function == "operator ()" && b.Stack.File == "dir name/file.f90" {
			found = true
		}
	}
	if !found {
		t.Errorf("quoted stack lost: %+v", got.Bursts)
	}
}

func TestCodecEmptyStrings(t *testing.T) {
	tr := &Trace{Meta: Metadata{Ranks: 1}}
	tr.Bursts = []Burst{{Task: 0, DurationNS: 1}}
	got := roundTrip(t, tr)
	if got.Bursts[0].Stack.Function != "" || got.Bursts[0].Stack.File != "" {
		t.Errorf("empty stack fields mangled: %+v", got.Bursts[0].Stack)
	}
}

func TestCodecFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "x.prv.txt")
	tr := sampleTrace()
	if err := WriteFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadFile(path, strictOpts)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Bursts) != len(tr.Bursts) {
		t.Errorf("bursts = %d, want %d", len(got.Bursts), len(tr.Bursts))
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, _, err := ReadFile(filepath.Join(t.TempDir(), "nope"), strictOpts); err == nil {
		t.Error("missing file should error")
	}
}

func TestCodecErrors(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"missing magic", "B 0 0 0 1 f f.c 1 0 0 0 0 0 0 0\n"},
		{"bad version", "#PERFTRACK 99\n"},
		{"malformed magic", "#PERFTRACK\n"},
		{"unknown counter", "#PERFTRACK 1\n#counters PAPI_NOPE\n"},
		{"garbage record", "#PERFTRACK 1\nX what\n"},
		{"short burst", "#PERFTRACK 1\nB 0 0 0\n"},
		{"trailing fields", "#PERFTRACK 1\nB 0 0 0 1 f f.c 1 0 0 0 0 0 0 0 extra\n"},
		{"bad ranks", "#PERFTRACK 1\n#meta ranks=abc\n"},
		{"unterminated quote", "#PERFTRACK 1\n#meta app=\"oops\n"},
	}
	for _, c := range cases {
		if _, _, err := ReadWith(strings.NewReader(c.input), strictOpts); err == nil {
			t.Errorf("%s: Read accepted malformed input", c.name)
		}
	}
}

func TestCodecIgnoresUnknownDirectives(t *testing.T) {
	input := "#PERFTRACK 1\n#meta app=x ranks=1 future=stuff\n#fancy new directive\nB 0 0 0 1 f f.c 1 0 0 0 0 0 0 0\n"
	tr, _, err := ReadWith(strings.NewReader(input), strictOpts)
	if err != nil {
		t.Fatalf("forward-compat parse failed: %v", err)
	}
	if tr.Meta.App != "x" || len(tr.Bursts) != 1 {
		t.Errorf("parsed %+v", tr)
	}
}

func TestCodecBlankLines(t *testing.T) {
	input := "#PERFTRACK 1\n\n\nB 0 0 0 1 f f.c 1 0 0 0 0 0 0 0\n\n"
	tr, _, err := ReadWith(strings.NewReader(input), strictOpts)
	if err != nil || len(tr.Bursts) != 1 {
		t.Errorf("blank lines broke parsing: %v %+v", err, tr)
	}
}

func TestCodecCounterOrderHeader(t *testing.T) {
	// A reordered #counters header must assign values to the right slots.
	input := "#PERFTRACK 1\n#counters PAPI_TOT_CYC PAPI_TOT_INS\nB 0 0 0 1 f f.c 1 0 50 100\n"
	tr, _, err := ReadWith(strings.NewReader(input), strictOpts)
	if err != nil {
		t.Fatal(err)
	}
	b := tr.Bursts[0]
	if b.Counters[metrics.CtrCycles] != 50 || b.Counters[metrics.CtrInstructions] != 100 {
		t.Errorf("counter reorder mishandled: %+v", b.Counters)
	}
}

// randomTrace builds a reproducible pseudo-random trace for property
// tests.
func randomTrace(seed uint64, n int) *Trace {
	rng := rand.New(rand.NewPCG(seed, 1))
	tr := &Trace{
		Meta: Metadata{
			App:   "fuzz",
			Label: "l",
			Ranks: 1 + rng.IntN(8),
		},
	}
	funcs := []string{"alpha", "beta", "with space", `qu"ote`, ""}
	for i := 0; i < n; i++ {
		b := Burst{
			Task:       rng.IntN(tr.Meta.Ranks),
			Thread:     rng.IntN(2),
			StartNS:    rng.Int64N(1e9),
			DurationNS: rng.Int64N(1e6),
			Phase:      rng.IntN(5),
			Stack: CallstackRef{
				Function: funcs[rng.IntN(len(funcs))],
				File:     "f.c",
				Line:     rng.IntN(1000),
			},
		}
		for c := 0; c < int(metrics.NumCounters); c++ {
			b.Counters[c] = float64(rng.Int64N(1e12))
		}
		tr.Bursts = append(tr.Bursts, b)
	}
	return tr
}

func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 40)
		tr := randomTrace(seed, n)
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, _, err := ReadWith(&buf, strictOpts)
		if err != nil {
			return false
		}
		want := tr.Clone()
		want.SortByTaskTime()
		return reflect.DeepEqual(got.Bursts, want.Bursts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWrite(b *testing.B) {
	tr := randomTrace(1, 10_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRead(b *testing.B) {
	tr := randomTrace(1, 10_000)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadWith(bytes.NewReader(data), strictOpts); err != nil {
			b.Fatal(err)
		}
	}
}
