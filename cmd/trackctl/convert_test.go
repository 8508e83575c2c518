package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

func convertTestTrace() *trace.Trace {
	tr := &trace.Trace{Meta: trace.Metadata{
		App: "convert", Label: "round trip", Ranks: 2, Machine: "TestBox",
		Params: map[string]string{"class": "A"},
	}}
	for task := 1; task >= 0; task-- { // out of (task, time) order on purpose
		for it := 0; it < 5; it++ {
			var c metrics.CounterVector
			c[metrics.CtrInstructions] = 1e6 + float64(it)
			c[metrics.CtrCycles] = 2.5e6
			tr.Bursts = append(tr.Bursts, trace.Burst{
				Task: task, StartNS: int64(it) * 1000, DurationNS: 800,
				Stack:    trace.CallstackRef{Function: "solve step", File: "s.f90", Line: it + 1},
				Counters: c, Phase: it % 2,
			})
		}
	}
	return tr
}

// TestConvertRoundTrip converts text to colbin and back: the result must
// be byte-equal to the text writer's rendering of the input.
func TestConvertRoundTrip(t *testing.T) {
	tr := convertTestTrace()
	var want bytes.Buffer
	if err := trace.Write(&want, tr); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "a.trace")
	if err := os.WriteFile(in, want.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdConvert([]string{in}); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "a.colbin")
	back := filepath.Join(dir, "back.trace")
	if err := cmdConvert([]string{"-to", "text", "-o", back, bin}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("text -> colbin -> text differs from the input:\n%s\nwant:\n%s", got, want.Bytes())
	}
}

// TestConvertErrorNamesPathOnce checks a decode error names the input
// path exactly once, for both input formats.
func TestConvertErrorNamesPathOnce(t *testing.T) {
	dir := t.TempDir()
	text := filepath.Join(dir, "bad.trace")
	if err := os.WriteFile(text, []byte("#PERFTRACK 1\nB garbage\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(dir, "bad.colbin")
	data := trace.EncodeColbin(convertTestTrace())
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(bin, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{text, bin} {
		err := cmdConvert([]string{"-o", filepath.Join(dir, "out"), p})
		if err == nil {
			t.Fatalf("%s: corrupt input converted", p)
		}
		if n := strings.Count(err.Error(), p); n != 1 {
			t.Errorf("error names %s %d times: %v", p, n, err)
		}
	}
}
