package service

// Content-type sniffing at the service boundary and the convert-on-
// first-read trace cache: binary columnar bodies on /v1/jobs and stream
// appends, the equivalence of text and binary submissions of the same
// traces, and the cache hit/miss/poison lifecycle.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"perftrack/internal/apps"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// uploadPair simulates the synthetic study and returns its runs both as
// text strings and colbin encodings.
func uploadPair(t *testing.T) (texts []string, bins [][]byte) {
	t.Helper()
	st, err := apps.ByName("Synthetic")
	if err != nil {
		t.Fatal(err)
	}
	traces, err := mpisim.SimulateSeriesContext(context.Background(), st.Runs)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range traces {
		var buf bytes.Buffer
		if err := trace.Write(&buf, tr); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, buf.String())
		// Encode the PARSED text, not the in-memory trace: the text
		// writer canonicalises burst order, and the binary submission
		// must fingerprint identically to the text one.
		parsed, _, err := trace.ReadWith(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{Strict: true})
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, trace.EncodeColbin(parsed))
	}
	return texts, bins
}

// overflowBody is a colbin trace crafted to overflow the block burst
// count: 10 valid bursts, a metadata burst count patched to 0, and one
// extra block declaring 2^64-10 bursts, with every section CRC valid. A
// decoder that converts the count to int before bounding it sees -10,
// the totals agree, and the parallel block decode panics.
func overflowBody(t *testing.T) []byte {
	t.Helper()
	tr := &trace.Trace{Meta: trace.Metadata{App: "a"}}
	for i := 0; i < 10; i++ {
		tr.Bursts = append(tr.Bursts, trace.Burst{Task: i, StartNS: int64(i)})
	}
	data := trace.EncodeColbin(tr)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	out := []byte(trace.ColbinMagic)
	section := func(kind byte, payload []byte) {
		body := append([]byte{kind}, payload...)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(body)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(body, castagnoli))
		out = append(out, body...)
	}
	for off := len(trace.ColbinMagic); off < len(data); {
		n := int(binary.LittleEndian.Uint32(data[off:]))
		kind, payload := data[off+8], data[off+9:off+8+n]
		off += 8 + n
		switch kind {
		case 'M':
			// The payload ends with the burst count (10, one byte) and
			// the block size hint (4096, two bytes).
			payload = append([]byte(nil), payload...)
			payload[len(payload)-3] = 0
		case 'E':
			section('B', binary.AppendUvarint(nil, math.MaxUint64-9))
			payload = []byte{0}
		}
		section(kind, payload)
	}
	return out
}

// checkHealthz asserts the daemon still answers liveness probes.
func checkHealthz(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %s, want 200", resp.Status)
	}
}

// TestBinarySubmitMatchesText is the ingest equivalence contract: the
// same traces submitted as a JSON text upload and as a raw concatenated
// colbin body resolve to the same fingerprint, so the second submission
// is a content-addressed cache hit of the first.
func TestBinarySubmitMatchesText(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 2})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	jsonBody, err := json.Marshal(JobRequest{Traces: texts})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	var textView JobView
	json.NewDecoder(resp.Body).Decode(&textView)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("text submit: %s", resp.Status)
	}

	var raw []byte
	for _, b := range bins {
		raw = append(raw, b...)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var binView JobView
	json.NewDecoder(resp.Body).Decode(&binView)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Fatalf("binary submit: %s", resp.Status)
	}
	if binView.Key != textView.Key {
		t.Fatalf("binary submission fingerprints %s, text %s — formats are not equivalent", binView.Key, textView.Key)
	}
	if got := s.m.jobsBinary.Value(); got != 1 {
		t.Fatalf("binary submissions counter %d, want 1", got)
	}

	// The TracesBin round trip through JSON (journal intents, mesh
	// forwarding) must preserve the key too.
	intent, err := json.Marshal(JobRequest{TracesBin: bins})
	if err != nil {
		t.Fatal(err)
	}
	var back JobRequest
	if err := json.Unmarshal(intent, &back); err != nil {
		t.Fatal(err)
	}
	spec, err := resolve(back)
	if err != nil {
		t.Fatal(err)
	}
	if spec.key != textView.Key {
		t.Fatalf("re-marshalled tracesBin fingerprints %s, want %s", spec.key, textView.Key)
	}
}

// TestSubmitBodySniffing pins the 4xx-vs-accept decisions at the job
// boundary for every body shape the sniffer distinguishes.
func TestSubmitBodySniffing(t *testing.T) {
	_, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	valid := append(append([]byte(nil), bins[0]...), bins[1]...)
	corruptMagic := append([]byte(nil), valid...)
	corruptMagic[6] ^= 0xFF // inside the magic: not colbin, not JSON
	torn := valid[:len(valid)-10]
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01 // valid magic, broken section CRC
	overflow := append(overflowBody(t), bins[1]...)

	cases := []struct {
		name string
		body []byte
		want []int
	}{
		{"valid binary", valid, []int{http.StatusOK, http.StatusAccepted}},
		{"corrupt magic", corruptMagic, []int{http.StatusBadRequest}},
		{"torn binary", torn, []int{http.StatusBadRequest}},
		{"crc broken binary", flipped, []int{http.StatusBadRequest}},
		{"empty body", nil, []int{http.StatusBadRequest}},
		{"garbage text", []byte("not json, not colbin"), []int{http.StatusBadRequest}},
		{"single binary trace", bins[0], []int{http.StatusBadRequest}}, // needs >= 2 traces or windows
		{"overflowing block count", overflow, []int{http.StatusBadRequest}},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ok := false
		for _, w := range tc.want {
			ok = ok || resp.StatusCode == w
		}
		if !ok {
			t.Errorf("%s: got %s, want one of %v", tc.name, resp.Status, tc.want)
		}
	}

	// windows=N rides the query string on binary submissions.
	resp, err := http.Post(srv.URL+"/v1/jobs?windows=4", "application/octet-stream", bytes.NewReader(bins[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		t.Errorf("single binary trace with ?windows=4: got %s, want accept", resp.Status)
	}
	resp, err = http.Post(srv.URL+"/v1/jobs?windows=bogus", "application/octet-stream", bytes.NewReader(bins[0]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("windows=bogus: got %s, want 400", resp.Status)
	}
	checkHealthz(t, srv.URL)
}

// TestStreamAppendSniffing drives the same format decisions on the
// stream ingest boundary: text chunks, binary chunks, corrupt binary,
// and empty bodies in strict and lenient mode.
func TestStreamAppendSniffing(t *testing.T) {
	texts, bins := uploadPair(t)
	s := newTest(t, Config{Workers: 1})
	defer shutdown(t, s)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/streams", "application/json",
		strings.NewReader(`{"label":"sniff","window":{"countN":64}}`))
	if err != nil {
		t.Fatal(err)
	}
	var sv StreamView
	json.NewDecoder(resp.Body).Decode(&sv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("stream create: %s", resp.Status)
	}
	appendURL := srv.URL + "/v1/streams/" + sv.ID + "/bursts"

	post := func(url string, body []byte) (int, StreamAppendResponse) {
		t.Helper()
		resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var ar StreamAppendResponse
		json.NewDecoder(resp.Body).Decode(&ar)
		resp.Body.Close()
		return resp.StatusCode, ar
	}

	if code, ar := post(appendURL, []byte(texts[0])); code != http.StatusOK || ar.Appended == 0 {
		t.Fatalf("text chunk: code %d, appended %d", code, ar.Appended)
	}
	code, ar := post(appendURL, bins[1])
	if code != http.StatusOK || ar.Appended == 0 {
		t.Fatalf("binary chunk: code %d, appended %d", code, ar.Appended)
	}

	corrupt := append([]byte(nil), bins[0]...)
	corrupt[len(corrupt)/2] ^= 0x10
	if code, _ := post(appendURL+"?strict=1", corrupt); code != http.StatusBadRequest {
		t.Errorf("strict corrupt binary chunk: code %d, want 400", code)
	}
	// Lenient mode may quarantine the damage instead, but must not 500.
	if code, _ := post(appendURL, corrupt); code != http.StatusOK && code != http.StatusBadRequest {
		t.Errorf("lenient corrupt binary chunk: code %d", code)
	}
	// An empty body is an empty lenient chunk (0 bursts) but a strict 400.
	if code, ar := post(appendURL, nil); code != http.StatusOK || ar.Appended != 0 {
		t.Errorf("lenient empty chunk: code %d appended %d", code, ar.Appended)
	}
	if code, _ := post(appendURL+"?strict=1", nil); code != http.StatusBadRequest {
		t.Errorf("strict empty chunk: code %d, want 400", code)
	}

	// A block count crafted to overflow int is a strict 400; lenient
	// mode may instead quarantine the crafted block and keep the rest.
	overflow := overflowBody(t)
	if code, _ := post(appendURL+"?strict=1", overflow); code != http.StatusBadRequest {
		t.Errorf("strict overflowing chunk: code %d, want 400", code)
	}
	switch code, ar := post(appendURL, overflow); {
	case code == http.StatusOK && ar.LinesSkipped != 1:
		t.Errorf("lenient overflowing chunk: 200 with %d sections quarantined, want 1", ar.LinesSkipped)
	case code != http.StatusOK && code != http.StatusBadRequest:
		t.Errorf("lenient overflowing chunk: code %d", code)
	}
	checkHealthz(t, srv.URL)
}

// TestTraceCacheConvertOnFirstRead exercises the cache lifecycle end to
// end: first text submission converts and files the colbin entries,
// repeat submissions decode from them, and poisoned entries fall back to
// the text parse and are re-derived.
func TestTraceCacheConvertOnFirstRead(t *testing.T) {
	texts, _ := uploadPair(t)
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 2, TraceCacheDir: dir})
	defer shutdown(t, s)

	submit := func(series string) {
		t.Helper()
		j, _, err := s.Submit(JobRequest{Traces: texts, Series: series})
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, s, j)
	}

	submit("")
	st := s.tcache.Stats()
	if st.Misses != int64(len(texts)) || st.Hits != 0 || st.Entries != len(texts) {
		t.Fatalf("after first submit: %+v", st)
	}

	// Same traces again (different series so the job itself is not an
	// instant result-cache short-circuit of resolve — though resolve
	// runs per submission regardless).
	submit("reread")
	st = s.tcache.Stats()
	if st.Hits != int64(len(texts)) {
		t.Fatalf("repeat submit did not hit the conversion cache: %+v", st)
	}

	// Poison every cached conversion: decode fails its CRC, the text
	// parse takes over, and the entries are re-derived.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	poisoned := 0
	for _, e := range ents {
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil || len(data) < 20 {
			continue
		}
		data[len(data)/2] ^= 0xFF
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		poisoned++
	}
	if poisoned == 0 {
		t.Fatal("no cache files found to poison")
	}
	submit("poisoned")
	st = s.tcache.Stats()
	if st.Rejected == 0 {
		t.Fatalf("poisoned entries were not rejected: %+v", st)
	}
	if st.Entries != len(texts) {
		t.Fatalf("poisoned entries were not re-derived: %+v", st)
	}

	// The rebuilt entries must decode again.
	submit("rebuilt")
	if st = s.tcache.Stats(); st.Hits < 2*int64(len(texts)) {
		t.Fatalf("rebuilt entries did not serve hits: %+v", st)
	}
}

// TestTraceCacheKeyedByMode: strict and lenient parses of the same bytes
// must never share a cache entry.
func TestTraceCacheKeyedByMode(t *testing.T) {
	texts, _ := uploadPair(t)
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 2, TraceCacheDir: dir})
	defer shutdown(t, s)

	j, _, err := s.Submit(JobRequest{Traces: texts})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j)
	j, _, err = s.Submit(JobRequest{Traces: texts, Lenient: true})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, s, j)
	if st := s.tcache.Stats(); st.Entries != 2*len(texts) {
		t.Fatalf("strict and lenient share entries: %+v", st)
	}
}
