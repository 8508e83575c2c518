package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"perftrack/internal/faults"
)

func mustOpen(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

func rec(i int, series string) Record {
	return Record{
		Key:      fmt.Sprintf("key-%04d", i),
		Series:   series,
		Label:    fmt.Sprintf("run-%d", i),
		UnixNano: int64(1000 + i),
		Payload:  []byte(fmt.Sprintf(`{"run":%d,"payload":"0123456789abcdef"}`, i)),
	}
}

// TestRoundtrip: append, read back, list, reopen, read back again.
func TestRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{})
	const n = 20
	for i := 0; i < n; i++ {
		if err := s.Append(rec(i, "s1")); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	check := func(s *Store, phase string) {
		t.Helper()
		for i := 0; i < n; i++ {
			want := rec(i, "s1")
			got, ok, err := s.Get(want.Key)
			if err != nil || !ok {
				t.Fatalf("%s: Get(%s): ok=%v err=%v", phase, want.Key, ok, err)
			}
			if !bytes.Equal(got, want.Payload) {
				t.Fatalf("%s: Get(%s) payload mismatch", phase, want.Key)
			}
		}
		metas := s.List()
		if len(metas) != n {
			t.Fatalf("%s: List() has %d records, want %d", phase, len(metas), n)
		}
		for i := 1; i < len(metas); i++ {
			if metas[i].Seq <= metas[i-1].Seq {
				t.Fatalf("%s: List() not in sequence order", phase)
			}
		}
		if got := len(s.Series("s1")); got != n {
			t.Fatalf("%s: Series(s1) has %d records, want %d", phase, got, n)
		}
		if got := s.SeriesNames(); len(got) != 1 || got[0] != "s1" {
			t.Fatalf("%s: SeriesNames() = %v", phase, got)
		}
	}
	check(s, "before close")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	check(s2, "after reopen")
	if st := s2.Stats(); st.Records != n || st.TornTruncated != 0 || st.CorruptDropped != 0 {
		t.Fatalf("reopen stats %+v", st)
	}
}

// TestSupersede: appending the same key again must shadow the old
// payload, both live and across a reopen.
func TestSupersede(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{SyncEvery: 1})
	r := rec(1, "a")
	if err := s.Append(r); err != nil {
		t.Fatal(err)
	}
	r2 := r
	r2.Series = "b"
	r2.Payload = []byte(`{"v":2}`)
	if err := s.Append(r2); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get(r.Key)
	if err != nil || !ok || !bytes.Equal(got, r2.Payload) {
		t.Fatalf("Get after supersede: %q ok=%v err=%v", got, ok, err)
	}
	if len(s.List()) != 1 {
		t.Fatalf("List() = %v, want 1 live record", s.List())
	}
	if got := s.Series("a"); len(got) != 0 {
		t.Fatalf("old series still lists the record: %v", got)
	}
	if got := s.Series("b"); len(got) != 1 {
		t.Fatalf("new series missing the record: %v", got)
	}
	if st := s.Stats(); st.Superseded != 1 {
		t.Fatalf("Superseded = %d, want 1", st.Superseded)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{})
	defer s2.Close()
	got, ok, err = s2.Get(r.Key)
	if err != nil || !ok || !bytes.Equal(got, r2.Payload) {
		t.Fatalf("Get after reopen: %q ok=%v err=%v", got, ok, err)
	}
}

// TestSegmentRotation: a tiny segment bound must spread records over
// many files, all of them readable, and rotation must survive reopen.
func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 256, SyncEvery: 4})
	const n = 40
	for i := 0; i < n; i++ {
		if err := s.Append(rec(i, "rot")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Segments < 4 {
		t.Fatalf("only %d segments with a 256-byte bound", st.Segments)
	}
	s.Close()

	s2 := mustOpen(t, dir, Options{MaxSegmentBytes: 256})
	defer s2.Close()
	if got := len(s2.List()); got != n {
		t.Fatalf("reopen found %d records, want %d", got, n)
	}
	for i := 0; i < n; i++ {
		if _, ok, err := s2.Get(fmt.Sprintf("key-%04d", i)); !ok || err != nil {
			t.Fatalf("Get(key-%04d) after rotation: ok=%v err=%v", i, ok, err)
		}
	}
}

// TestResolveKey: exact, unique-prefix, ambiguous and missing lookups.
func TestResolveKey(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{})
	defer s.Close()
	for _, k := range []string{"abcd1234", "abff5678", "zz009988"} {
		if err := s.Append(Record{Key: k, Payload: []byte("x")}); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.ResolveKey("abcd1234"); err != nil || got != "abcd1234" {
		t.Fatalf("exact: %q %v", got, err)
	}
	if got, err := s.ResolveKey("zz"); err != nil || got != "zz009988" {
		t.Fatalf("prefix: %q %v", got, err)
	}
	if _, err := s.ResolveKey("ab"); err == nil {
		t.Fatal("ambiguous prefix resolved")
	}
	if _, err := s.ResolveKey("nope"); err == nil {
		t.Fatal("missing key resolved")
	}
}

// TestFsyncBatching: SyncEvery batches fsyncs and the OnFsync hook
// observes them.
func TestFsyncBatching(t *testing.T) {
	var observed int
	s := mustOpen(t, t.TempDir(), Options{SyncEvery: 4, OnFsync: func(time.Duration) { observed++ }})
	defer s.Close()
	for i := 0; i < 10; i++ {
		if err := s.Append(rec(i, "")); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Fsyncs != 2 { // after records 4 and 8
		t.Fatalf("Fsyncs = %d after 10 appends with SyncEvery=4, want 2", st.Fsyncs)
	}
	if uint64(observed) != st.Fsyncs {
		t.Fatalf("OnFsync observed %d, stats say %d", observed, st.Fsyncs)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().Fsyncs; got != 3 {
		t.Fatalf("Fsyncs after explicit Sync = %d, want 3", got)
	}
}

// TestMidHistoryCorruption: flipping bytes in an older (sealed) segment
// must not prevent opening; the records after the corruption point in
// that segment are dropped and later segments stay intact.
func TestMidHistoryCorruption(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{MaxSegmentBytes: 300, SyncEvery: 1})
	const n = 30
	for i := 0; i < n; i++ {
		if err := s.Append(rec(i, "x")); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	ids, err := listSegments(faults.OS{}, dir)
	if err != nil || len(ids) < 3 {
		t.Fatalf("need >=3 segments, got %v (%v)", ids, err)
	}
	// Corrupt the middle of the first segment (not the newest).
	path := filepath.Join(dir, segName(ids[0]))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := mustOpen(t, dir, Options{MaxSegmentBytes: 300})
	defer s2.Close()
	st := s2.Stats()
	if st.CorruptDropped == 0 {
		t.Fatalf("corruption not detected: %+v", st)
	}
	if st.Records == 0 || st.Records >= n {
		t.Fatalf("expected partial recovery, got %d/%d records", st.Records, n)
	}
	// The newest records (later segments) must all have survived.
	for i := n - 5; i < n; i++ {
		if _, ok, err := s2.Get(fmt.Sprintf("key-%04d", i)); !ok || err != nil {
			t.Fatalf("late record key-%04d lost to early corruption: ok=%v err=%v", i, ok, err)
		}
	}
}
