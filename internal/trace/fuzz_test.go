package trace

import (
	"bytes"
	"testing"
)

// FuzzRead ensures the trace parser never panics on arbitrary input and
// that anything it accepts round-trips through the writer.
func FuzzRead(f *testing.F) {
	var seed bytes.Buffer
	if err := Write(&seed, sampleTrace()); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.String())
	f.Add("#PERFTRACK 1\n")
	f.Add("#PERFTRACK 1\n#meta app=x ranks=2\nB 0 0 0 1 f f.c 1 0 0 0 0 0 0 0\n")
	f.Add("")
	f.Add("#PERFTRACK 1\n#param k=\"v with space\"\nB 1 0 5 5 \"fn x\" g.c 2 1 1 2 3 4 5 6\n")
	f.Fuzz(func(t *testing.T, input string) {
		tr, _, err := ReadWith(bytes.NewReader([]byte(input)), strictOpts)
		if err != nil {
			return // rejecting is fine; panicking is not
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			t.Fatalf("accepted trace failed to serialise: %v", err)
		}
		if _, _, err := ReadWith(&buf, strictOpts); err != nil {
			t.Fatalf("writer output does not re-parse: %v", err)
		}
	})
}

// FuzzColbinNoPanic feeds raw bytes to the sniffing decoder in strict and
// lenient mode. Rejecting is fine; panicking is not, and any trace it
// accepts must re-encode to colbin and decode again.
func FuzzColbinNoPanic(f *testing.F) {
	f.Add(craftOverflow(false))
	f.Add(craftOverflow(true))
	valid := EncodeColbin(sampleTrace())
	for cut := 0; cut <= len(valid); cut++ {
		f.Add(valid[:cut])
	}
	f.Fuzz(func(t *testing.T, input []byte) {
		for _, strict := range []bool{true, false} {
			tr, _, err := Decode(input, DecodeOptions{Strict: strict})
			if err != nil {
				continue
			}
			if _, _, err := DecodeColbinWith(EncodeColbin(tr), DecodeOptions{Strict: true}); err != nil {
				t.Fatalf("strict=%v: accepted trace does not survive a colbin round trip: %v", strict, err)
			}
		}
	})
}
