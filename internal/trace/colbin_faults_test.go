package trace_test

// Byte-level fault injection against the binary columnar codec, plus the
// colbin round-trip fuzz target. External test package because it drives
// internal/trace through internal/faults, which imports internal/trace.

import (
	"reflect"
	"testing"

	"perftrack/internal/faults"
	"perftrack/internal/trace"
)

// strictOpts is the all-or-nothing decode the external tests want.
var strictOpts = trace.DecodeOptions{Strict: true}

// TestColbinFaultInjection is the corruption contract of the binary
// format: for every byte-level injector and severity, a strict decode of
// the corrupted encoding either fails loudly or yields the original trace
// bit for bit — never a silently different trace — and a lenient decode
// never panics, and either diagnoses the damage or recovers the original.
func TestColbinFaultInjection(t *testing.T) {
	orig := seedTrace()
	clean := trace.EncodeColbin(orig)
	for _, frac := range []float64{0.02, 0.1, 0.3, 0.6} {
		for _, inj := range faults.ByteInjectors(frac) {
			for seed := uint64(1); seed <= 10; seed++ {
				corrupt, rep := inj.ApplyBytes(clean, seed)

				got, _, err := trace.DecodeColbinWith(corrupt, strictOpts)
				if err == nil && !reflect.DeepEqual(got, orig) {
					t.Fatalf("%s frac=%g seed=%d: strict decode of %d-fault input silently differs",
						inj.Name(), frac, seed, rep.Faults)
				}

				lgot, diag, lerr := trace.DecodeColbinWith(corrupt, trace.DecodeOptions{})
				if lerr != nil {
					continue // header damage: loud failure is allowed
				}
				if diag.Skipped() == 0 && !diag.Truncated && !reflect.DeepEqual(lgot, orig) {
					t.Fatalf("%s frac=%g seed=%d: lenient decode reported clean but differs from input",
						inj.Name(), frac, seed)
				}
				// Surviving bursts must be an in-order subsequence of the
				// original: quarantine drops whole blocks, never reorders
				// or invents bursts.
				j := 0
				for i := range lgot.Bursts {
					for j < len(orig.Bursts) && !reflect.DeepEqual(lgot.Bursts[i], orig.Bursts[j]) {
						j++
					}
					if j == len(orig.Bursts) {
						t.Fatalf("%s frac=%g seed=%d: surviving burst %d not an in-order subsequence",
							inj.Name(), frac, seed, i)
					}
					j++
				}
			}
		}
	}
}

// FuzzColbinRoundTrip seeds valid encodings (clean and fault-injected)
// and checks the property that defines the codec: any input the strict
// decoder accepts re-encodes to something that decodes to the same trace.
// Byte equality is deliberately not required — the decoder accepts
// non-minimal varints the canonical encoder would never emit.
func FuzzColbinRoundTrip(f *testing.F) {
	clean := trace.EncodeColbin(seedTrace())
	f.Add(clean)
	f.Add(trace.EncodeColbin(&trace.Trace{Meta: trace.Metadata{App: "tiny"}}))
	f.Add([]byte(trace.ColbinMagic))
	for _, frac := range []float64{0.05, 0.25} {
		for _, inj := range faults.ByteInjectors(frac) {
			corrupt, _ := inj.ApplyBytes(clean, 1)
			f.Add(corrupt)
		}
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		tr, _, err := trace.DecodeColbinWith(input, strictOpts)
		if err == nil {
			back, _, err := trace.DecodeColbinWith(trace.EncodeColbin(tr), strictOpts)
			if err != nil {
				t.Fatalf("re-encode of accepted input failed to decode: %v", err)
			}
			if !reflect.DeepEqual(back, tr) {
				t.Fatal("colbin round trip changed the trace")
			}
		}
		// Lenient must never panic on the same input, and whatever it
		// salvages must re-encode.
		ltr, _, lerr := trace.DecodeColbinWith(input, trace.DecodeOptions{})
		if lerr == nil {
			if _, _, err := trace.DecodeColbinWith(trace.EncodeColbin(ltr), strictOpts); err != nil {
				t.Fatalf("lenient salvage is unserialisable: %v", err)
			}
		}
	})
}
