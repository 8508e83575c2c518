package main

import (
	"path/filepath"
	"testing"

	"perftrack/internal/apps"
	"perftrack/internal/trace"
)

func TestSanitize(t *testing.T) {
	cases := map[string]string{
		"NAS BT":               "NAS_BT",
		"MareNostrum/gfortran": "MareNostrum-gfortran",
		"a:b c":                "a-b_c",
	}
	for in, want := range cases {
		if got := sanitize(in); got != want {
			t.Errorf("sanitize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestGenerateStudy(t *testing.T) {
	st, err := apps.ByName("NAS FT")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink: two small runs.
	st.Runs = st.Runs[:2]
	for i := range st.Runs {
		st.Runs[i].Scenario.Iterations = 2
		st.Runs[i].Scenario.Ranks = 4
	}
	dir := t.TempDir()
	if err := generate(st, dir); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "NAS_FT", "*.prv.txt"))
	if err != nil || len(files) != 2 {
		t.Fatalf("generated files = %v (%v)", files, err)
	}
	// The files parse back.
	for _, f := range files {
		tr, _, err := trace.ReadFile(f, trace.DecodeOptions{Strict: true})
		if err != nil {
			t.Errorf("%s: %v", f, err)
			continue
		}
		if len(tr.Bursts) == 0 {
			t.Errorf("%s: empty trace", f)
		}
	}
}

func TestRunModes(t *testing.T) {
	if err := run(true, "", false, ""); err != nil {
		t.Errorf("-list failed: %v", err)
	}
	if err := run(false, "", false, t.TempDir()); err == nil {
		t.Error("no mode selected should error")
	}
	if err := run(false, "Bogus", false, t.TempDir()); err == nil {
		t.Error("unknown study accepted")
	}
}
