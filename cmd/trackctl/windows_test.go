package main

import (
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// windowTraceFiles writes n planted-phase traces and returns their paths.
func windowTraceFiles(t *testing.T, n int) []string {
	t.Helper()
	dir := t.TempDir()
	paths := make([]string, n)
	for i := range paths {
		paths[i] = filepath.Join(dir, "run"+string(rune('a'+i))+".prv.txt")
		tr := oracle.GenTraces(uint64(70+i), "run", 8, 24, 3)
		if err := trace.WriteFile(paths[i], tr); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestWindowsTrackAndReport drives the -windows path of `trackctl track`
// and `trackctl report`: one trace split into four windows is tracked,
// several traces with -windows are refused, and one trace without
// -windows is refused by track.
func TestWindowsTrackAndReport(t *testing.T) {
	one := windowTraceFiles(t, 1)
	two := windowTraceFiles(t, 2)
	cmds := map[string]func([]string) error{"track": cmdTrack, "report": cmdReport}
	for name, cmd := range cmds {
		if err := cmd(append([]string{"-windows", "4"}, one...)); err != nil {
			t.Errorf("%s -windows 4 over one trace: %v", name, err)
		}
		err := cmd(append([]string{"-windows", "4"}, two...))
		if err == nil || !strings.Contains(err.Error(), "exactly one trace, got 2") {
			t.Errorf("%s -windows 4 over two traces: err = %v, want the exactly-one-trace error", name, err)
		}
	}
	err := cmdTrack(one)
	if err == nil || !strings.Contains(err.Error(), "track needs at least two traces (or one trace with -windows), got 1") {
		t.Errorf("track over one trace without -windows: err = %v, want the at-least-two error", err)
	}
}
