package store

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"
)

func openStreamTestStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(filepath.Join(t.TempDir(), "db"), Options{SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// framesOf encodes every record of src whose metadata passes keep as
// wire frames, the way the mesh's rebalance does: List, Get, EncodeFrame.
func framesOf(t *testing.T, src *Store, keep func(Meta) bool) []byte {
	t.Helper()
	var buf []byte
	for _, m := range src.List() {
		if !keep(m) {
			continue
		}
		payload, ok, err := src.Get(m.Key)
		if err != nil || !ok {
			t.Fatalf("Get(%s) = %v, %v", m.Key, ok, err)
		}
		buf = EncodeFrame(buf, Record{Key: m.Key, Series: m.Series, Label: m.Label, UnixNano: m.UnixNano, Payload: payload}, m.Seq)
	}
	return buf
}

func TestStreamRoundTrip(t *testing.T) {
	src := openStreamTestStore(t)
	recs := []Record{
		{Key: "aaa", Series: "s1", Label: "r1", UnixNano: 100, Payload: []byte(`{"a":1}`)},
		{Key: "bbb", Series: "s1", Label: "r2", UnixNano: 200, Payload: []byte(`{"b":2}`)},
		{Key: "ccc", Label: "r3", UnixNano: 300, Payload: []byte(`{"c":3}`)},
	}
	for _, r := range recs {
		if err := src.Append(r); err != nil {
			t.Fatal(err)
		}
	}

	frames := framesOf(t, src, func(Meta) bool { return true })

	dst := openStreamTestStore(t)
	applied, skipped, err := dst.ImportFrames(bytes.NewReader(frames))
	if err != nil || applied != 3 || skipped != 0 {
		t.Fatalf("ImportFrames = %d applied, %d skipped, %v", applied, skipped, err)
	}
	for _, r := range recs {
		got, ok, err := dst.Get(r.Key)
		if err != nil || !ok || !bytes.Equal(got, r.Payload) {
			t.Fatalf("Get(%s) after import = %q, %v, %v", r.Key, got, ok, err)
		}
		m, _ := dst.GetMeta(r.Key)
		if m.Series != r.Series || m.Label != r.Label || m.UnixNano != r.UnixNano {
			t.Fatalf("meta mismatch after import: %+v vs %+v", m, r)
		}
	}

	// Re-importing the same stream is a no-op: idempotent replication.
	applied, skipped, err = dst.ImportFrames(bytes.NewReader(frames))
	if err != nil || applied != 0 || skipped != 3 {
		t.Fatalf("re-import = %d applied, %d skipped, %v", applied, skipped, err)
	}
}

func TestStreamFilter(t *testing.T) {
	src := openStreamTestStore(t)
	for _, r := range []Record{
		{Key: "k1", Series: "keep", UnixNano: 1, Payload: []byte("x")},
		{Key: "k2", Series: "drop", UnixNano: 2, Payload: []byte("y")},
		{Key: "k3", Series: "keep", UnixNano: 3, Payload: []byte("z")},
	} {
		if err := src.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	frames := framesOf(t, src, func(m Meta) bool { return m.Series == "keep" })
	dst := openStreamTestStore(t)
	if applied, _, err := dst.ImportFrames(bytes.NewReader(frames)); err != nil || applied != 2 {
		t.Fatalf("import = %d, %v", applied, err)
	}
	if _, ok, _ := dst.Get("k2"); ok {
		t.Fatal("filtered-out key leaked into the stream")
	}
}

func TestImportSupersede(t *testing.T) {
	dst := openStreamTestStore(t)
	if err := dst.Append(Record{Key: "k", UnixNano: 500, Payload: []byte("new")}); err != nil {
		t.Fatal(err)
	}
	// Older copy arriving late (e.g. rebalance retry) must not clobber.
	if ok, err := dst.ImportRecord(Record{Key: "k", UnixNano: 100, Payload: []byte("old")}); ok || err != nil {
		t.Fatalf("stale import applied: %v, %v", ok, err)
	}
	if got, _, _ := dst.Get("k"); string(got) != "new" {
		t.Fatalf("payload clobbered by stale import: %q", got)
	}
	// Same-time re-delivery is also a skip.
	if ok, _ := dst.ImportRecord(Record{Key: "k", UnixNano: 500, Payload: []byte("new")}); ok {
		t.Fatal("same-time re-delivery applied")
	}
	// A genuinely newer copy supersedes.
	if ok, err := dst.ImportRecord(Record{Key: "k", UnixNano: 900, Payload: []byte("newer")}); !ok || err != nil {
		t.Fatalf("newer import skipped: %v, %v", ok, err)
	}
	if got, _, _ := dst.Get("k"); string(got) != "newer" {
		t.Fatalf("newer import not visible: %q", got)
	}
}

func TestImportBadFrame(t *testing.T) {
	var buf bytes.Buffer
	good := EncodeFrame(nil, Record{Key: "ok", UnixNano: 1, Payload: []byte("p")}, 1)
	buf.Write(good)
	bad := EncodeFrame(nil, Record{Key: "bad", UnixNano: 2, Payload: []byte("q")}, 2)
	bad[len(bad)-1] ^= 0xff // corrupt the payload under the CRC
	buf.Write(bad)

	dst := openStreamTestStore(t)
	applied, _, err := dst.ImportFrames(&buf)
	if !errors.Is(err, ErrBadFrame) {
		t.Fatalf("corrupt frame error = %v, want ErrBadFrame", err)
	}
	if applied != 1 {
		t.Fatalf("frames before the corruption: applied = %d, want 1", applied)
	}
	if _, ok, _ := dst.Get("ok"); !ok {
		t.Fatal("good frame before corruption was not applied")
	}

	// A truncated stream (cut mid-frame) is also ErrBadFrame, not EOF.
	if _, _, err := ReadFrame(bytes.NewReader(good[:len(good)-3])); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated frame error = %v, want ErrBadFrame", err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream = %v, want io.EOF", err)
	}
}
