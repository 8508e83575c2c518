package trace_test

// Fault-seeded fuzzing and the lenient round-trip property. This file
// lives in the external test package because it drives internal/trace
// through internal/faults, which itself imports internal/trace.

import (
	"bytes"
	"testing"

	"perftrack/internal/faults"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// seedTrace builds a moderately sized trace for corruption: enough tasks
// and bursts that every injector has material to work with.
func seedTrace() *trace.Trace {
	t := &trace.Trace{Meta: trace.Metadata{
		App: "fuzz", Label: "seed", Ranks: 6, Machine: "TestBox",
		Params: map[string]string{"class": "A"},
	}}
	for task := 0; task < 6; task++ {
		clock := int64(0)
		for it := 0; it < 12; it++ {
			var c metrics.CounterVector
			c[metrics.CtrInstructions] = 1e6 + float64(1000*it)
			c[metrics.CtrCycles] = 2e6
			t.Bursts = append(t.Bursts, trace.Burst{
				Task: task, StartNS: clock, DurationNS: 800_000,
				Stack:    trace.CallstackRef{Function: "f", File: "f.c", Line: it%3 + 1},
				Counters: c, Phase: it % 3,
			})
			clock += 1_000_000
		}
	}
	return t
}

func encodeT(tb testing.TB, t *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, t); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLenientRead seeds the fuzzer with the output of every byte-level
// fault injector (on top of a clean trace) and checks the lenient decoder
// never panics and never errors with unlimited tolerance.
func FuzzLenientRead(f *testing.F) {
	clean := encodeT(f, seedTrace())
	f.Add(string(clean))
	for _, frac := range []float64{0.05, 0.25, 0.75} {
		for _, inj := range faults.ByteInjectors(frac) {
			for seed := uint64(1); seed <= 3; seed++ {
				corrupt, _ := inj.ApplyBytes(clean, seed)
				f.Add(string(corrupt))
			}
		}
	}
	f.Fuzz(func(t *testing.T, input string) {
		tr, diag, err := trace.ReadWith(bytes.NewReader([]byte(input)), trace.DecodeOptions{})
		if err != nil {
			return // only I/O or give-up errors; never a panic
		}
		_ = diag.Summary()
		// Whatever survived quarantine must re-serialise.
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatalf("lenient decode produced an unserialisable trace: %v", err)
		}
	})
}

// TestLenientRoundTripProperty is the robustness contract of the codec:
// for every byte-level injector and severity, lenient-decoding the
// corrupted encoding never panics, never errors, and quarantines at most
// the number of injected faults.
func TestLenientRoundTripProperty(t *testing.T) {
	clean := encodeT(t, seedTrace())
	cleanTr, diag, err := trace.ReadWith(bytes.NewReader(clean), trace.DecodeOptions{})
	if err != nil || diag.Skipped() != 0 {
		t.Fatalf("clean encoding must decode cleanly: err=%v skipped=%d", err, diag.Skipped())
	}
	for _, frac := range []float64{0.02, 0.1, 0.3, 0.6} {
		for _, inj := range faults.ByteInjectors(frac) {
			for seed := uint64(1); seed <= 10; seed++ {
				corrupt, rep := inj.ApplyBytes(clean, seed)
				tr, diag, err := trace.ReadWith(bytes.NewReader(corrupt), trace.DecodeOptions{})
				if err != nil {
					t.Fatalf("%s frac=%g seed=%d: lenient decode errored: %v", inj.Name(), frac, seed, err)
				}
				if diag.Skipped() > rep.Faults {
					t.Errorf("%s frac=%g seed=%d: quarantined %d lines > %d injected faults",
						inj.Name(), frac, seed, diag.Skipped(), rep.Faults)
				}
				if got := len(tr.Bursts) + diag.Skipped(); got < len(cleanTr.Bursts)-rep.Faults {
					t.Errorf("%s frac=%g seed=%d: %d bursts + %d quarantined < %d original - %d faults: lines vanished silently",
						inj.Name(), frac, seed, len(tr.Bursts), diag.Skipped(), len(cleanTr.Bursts), rep.Faults)
				}
			}
		}
	}
}

// TestInMemoryFaultsRoundTrip checks every in-memory injector's output
// survives a strict encode/decode round trip: the corruption lives in the
// values, not the format.
func TestInMemoryFaultsRoundTrip(t *testing.T) {
	in := seedTrace()
	for _, inj := range faults.TraceInjectors(0.2) {
		corrupted, rep := inj.Apply(in, 99)
		enc := encodeT(t, corrupted)
		back, _, err := trace.ReadWith(bytes.NewReader(enc), strictOpts)
		if err != nil {
			// NaN/Inf counters serialise as parseable floats, so even
			// those must round-trip strictly.
			t.Fatalf("%s: corrupted trace failed strict round trip: %v", inj.Name(), err)
		}
		if len(back.Bursts) != len(corrupted.Bursts) {
			t.Errorf("%s: %d bursts in, %d out", inj.Name(), len(corrupted.Bursts), len(back.Bursts))
		}
		if rep.Faults == 0 {
			t.Errorf("%s: injector at frac 0.2 reported no faults", inj.Name())
		}
	}
}
