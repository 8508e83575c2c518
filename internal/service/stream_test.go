package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"perftrack/internal/core"
	"perftrack/internal/oracle"
	"perftrack/internal/stream"
	"perftrack/internal/trace"
)

// streamTestTrace is a small seeded workload plus the decoded form of
// its burst chunks — decoded locally with the same codec the daemon
// uses, so the batch reference sees byte-identical inputs.
func streamTestTrace(t *testing.T, seed uint64) (*trace.Trace, []trace.Burst) {
	t.Helper()
	tr := oracle.GenTraces(seed, "live", 8, 10, 3) // 240 bursts
	var buf bytes.Buffer
	if err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	dec, _, err := trace.ReadWith(bytes.NewReader(buf.Bytes()), trace.DecodeOptions{Strict: false})
	if err != nil {
		t.Fatal(err)
	}
	return dec, dec.Bursts
}

// encodeChunk renders a burst slice in the perftrack text format.
func encodeChunk(t *testing.T, meta trace.Metadata, bursts []trace.Burst) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.Write(&buf, &trace.Trace{Meta: meta, Bursts: bursts}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJSON(t *testing.T, client *http.Client, url string, body any, out any) *http.Response {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

func postBytes(t *testing.T, client *http.Client, url string, body []byte, out any) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil && resp.StatusCode < 300 {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decoding %s response %q: %v", url, raw, err)
		}
	}
	resp.Body = io.NopCloser(bytes.NewReader(raw))
	return resp
}

// batchWindowExport runs the batch pipeline over arrival-order chunks
// of the burst sequence and returns the export bytes.
func batchWindowExport(t *testing.T, bursts []trace.Burst, countN, ranks int, labels []string, cfg core.Config) []byte {
	t.Helper()
	var windows []*trace.Trace
	for i := 0; i < len(bursts); i += countN {
		end := min(i+countN, len(bursts))
		w := &trace.Trace{
			Meta:   trace.Metadata{Label: labels[len(windows)], Ranks: ranks},
			Bursts: append([]trace.Burst(nil), bursts[i:end]...),
		}
		w.SortByTaskTime()
		windows = append(windows, w)
	}
	frames, err := core.BuildFramesContext(context.Background(), windows, cfg)
	if err != nil {
		t.Fatalf("BuildFrames: %v", err)
	}
	res, err := core.NewTracker(cfg).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatalf("Track: %v", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, cfg.Metrics); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamHTTPDifferential drives a stream over HTTP end to end:
// create, append chunks, finish — and checks the export persisted for
// the final window is bit-exact with the batch pipeline over the same
// arrival-order chunks.
func TestStreamHTTPDifferential(t *testing.T) {
	dir := t.TempDir()
	s := newTest(t, Config{Workers: 1, StoreDir: dir, JournalDisabled: true})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	tr, bursts := streamTestTrace(t, 7)
	countN := 60
	var view StreamView
	resp := postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		Label:  "live",
		Ranks:  tr.Meta.Ranks,
		Window: stream.WindowSpec{CountN: countN},
		Series: "live-series",
	}, &view)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	if view.ID == "" || !view.Stats.Incremental {
		t.Fatalf("unexpected view %+v", view)
	}

	var labels []string
	chunk := 37
	for i := 0; i < len(bursts); i += chunk {
		end := min(i+chunk, len(bursts))
		var ar StreamAppendResponse
		resp := postBytes(t, client, srv.URL+"/v1/streams/"+view.ID+"/bursts",
			encodeChunk(t, tr.Meta, bursts[i:end]), &ar)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d", resp.StatusCode)
		}
		if ar.Appended != end-i {
			t.Fatalf("appended %d of %d", ar.Appended, end-i)
		}
		for _, d := range ar.Sealed {
			labels = append(labels, d.Label)
		}
	}
	var fin struct {
		Sealed []*stream.Delta `json:"sealed"`
		Stream StreamView      `json:"stream"`
	}
	resp = postJSON(t, client, srv.URL+"/v1/streams/"+view.ID+"/finish", nil, &fin)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("finish: status %d", resp.StatusCode)
	}
	for _, d := range fin.Sealed {
		labels = append(labels, d.Label)
	}
	wantWindows := (len(bursts) + countN - 1) / countN
	if len(labels) != wantWindows {
		t.Fatalf("sealed %d windows, want %d", len(labels), wantWindows)
	}
	if !fin.Stream.Closed {
		t.Fatal("stream not closed after finish")
	}

	// The persisted export of the last window must equal the batch run.
	key := streamExportKey(view.ID, wantWindows-1)
	got, ok, err := s.Store().Get(key)
	if err != nil || !ok {
		t.Fatalf("stored export %s: ok=%v err=%v", key, ok, err)
	}
	e, _ := s.streams.get(view.ID)
	cfg := e.sess.Config().Pipeline
	cfg.Metrics = e.sess.Metrics()
	want := batchWindowExport(t, bursts, countN, tr.Meta.Ranks, labels, cfg)
	if !bytes.Equal(got, want) {
		t.Fatalf("stream export diverges from batch (%d vs %d bytes)", len(got), len(want))
	}

	// The exports are filed under the public series; the raw records are
	// not listed there.
	var sl struct {
		Series []string `json:"series"`
	}
	r2, err := client.Get(srv.URL + "/v1/series")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r2.Body).Decode(&sl)
	r2.Body.Close()
	for _, n := range sl.Series {
		if strings.HasPrefix(n, streamShadowPrefix) {
			t.Fatalf("shadow series %q leaked into /v1/series", n)
		}
	}
	var found bool
	for _, n := range sl.Series {
		found = found || n == "live-series"
	}
	if !found {
		t.Fatalf("live-series missing from %v", sl.Series)
	}

	// Trajectories over the live series answer 200 with runs.
	r3, err := client.Get(srv.URL + "/v1/series/live-series/trajectories")
	if err != nil {
		t.Fatal(err)
	}
	if r3.StatusCode != http.StatusOK {
		t.Fatalf("trajectories: status %d", r3.StatusCode)
	}
	r3.Body.Close()
}

// TestStreamResume crashes the daemon between chunks (at a window
// boundary) and proves the journaled stream resumes with every sealed
// window intact, keeps ingesting, and ends bit-exact with an
// uninterrupted batch run.
func TestStreamResume(t *testing.T) {
	dir := t.TempDir()
	tr, bursts := streamTestTrace(t, 11)
	countN := 40
	base := Config{Workers: 1, StoreDir: dir, JournalDisabled: true}

	s1 := newTest(t, base)
	srv1 := httptest.NewServer(s1.Handler())
	client := srv1.Client()
	var view StreamView
	resp := postJSON(t, client, srv1.URL+"/v1/streams", StreamRequest{
		ID:     "resume-x",
		Label:  "live",
		Ranks:  tr.Meta.Ranks,
		Window: stream.WindowSpec{CountN: countN},
		Series: "resumed-series",
	}, &view)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	var labels []string
	cut := 3 * countN // crash exactly at a window boundary
	if cut > len(bursts) {
		t.Fatalf("trace too small: %d bursts", len(bursts))
	}
	var ar StreamAppendResponse
	postBytes(t, client, srv1.URL+"/v1/streams/resume-x/bursts",
		encodeChunk(t, tr.Meta, bursts[:cut]), &ar)
	if len(ar.Sealed) != 3 {
		t.Fatalf("sealed %d windows before crash, want 3", len(ar.Sealed))
	}
	for _, d := range ar.Sealed {
		labels = append(labels, d.Label)
	}
	srv1.Close()
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	s2 := newTest(t, base)
	defer s2.Shutdown(context.Background())
	srv2 := httptest.NewServer(s2.Handler())
	defer srv2.Close()
	client = srv2.Client()

	var v2 StreamView
	r, err := client.Get(srv2.URL + "/v1/streams/resume-x")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("resumed stream lookup: status %d", r.StatusCode)
	}
	json.NewDecoder(r.Body).Decode(&v2)
	r.Body.Close()
	if !v2.Resumed || v2.Stats.WindowsSealed != 3 {
		t.Fatalf("resumed view %+v", v2)
	}

	var ar2 StreamAppendResponse
	postBytes(t, client, srv2.URL+"/v1/streams/resume-x/bursts",
		encodeChunk(t, tr.Meta, bursts[cut:]), &ar2)
	for _, d := range ar2.Sealed {
		labels = append(labels, d.Label)
	}
	var fin struct {
		Sealed []*stream.Delta `json:"sealed"`
	}
	postJSON(t, client, srv2.URL+"/v1/streams/resume-x/finish", nil, &fin)
	for _, d := range fin.Sealed {
		labels = append(labels, d.Label)
	}
	wantWindows := (len(bursts) + countN - 1) / countN
	if len(labels) != wantWindows {
		t.Fatalf("sealed %d windows across the restart, want %d", len(labels), wantWindows)
	}

	key := streamExportKey("resume-x", wantWindows-1)
	got, ok, err := s2.Store().Get(key)
	if err != nil || !ok {
		t.Fatalf("stored export %s: ok=%v err=%v", key, ok, err)
	}
	e, _ := s2.streams.get("resume-x")
	cfg := e.sess.Config().Pipeline
	cfg.Metrics = e.sess.Metrics()
	want := batchWindowExport(t, bursts, countN, tr.Meta.Ranks, labels, cfg)
	if !bytes.Equal(got, want) {
		t.Fatal("post-resume export diverges from batch")
	}

	// Finish resolved the journal: a third daemon does not resurrect it.
	if err := s2.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	s3 := newTest(t, base)
	defer s3.Shutdown(context.Background())
	if _, ok := s3.streams.get("resume-x"); ok {
		t.Fatal("finished stream resurrected after restart")
	}
}

// TestStreamEvents covers both subscription modes: long-poll returns
// the sealed deltas past a cursor, SSE pushes them as they seal and
// ends with a finish event.
func TestStreamEvents(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	tr, bursts := streamTestTrace(t, 3)
	var view StreamView
	postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		Label: "ev", Ranks: tr.Meta.Ranks,
		Window: stream.WindowSpec{CountN: 50},
	}, &view)

	// SSE subscriber attached before any window seals.
	sseReq, _ := http.NewRequest("GET", srv.URL+"/v1/streams/"+view.ID+"/events?sse=1", nil)
	sseResp, err := client.Do(sseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	sseEvents := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "event: ") {
				sseEvents <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(sseEvents)
	}()

	postBytes(t, client, srv.URL+"/v1/streams/"+view.ID+"/bursts",
		encodeChunk(t, tr.Meta, bursts[:120]), nil)

	// Long-poll from the start: both sealed windows arrive in order.
	var poll struct {
		Events []streamEvent `json:"events"`
		Next   int64         `json:"next"`
		Closed bool          `json:"closed"`
	}
	r, err := client.Get(srv.URL + "/v1/streams/" + view.ID + "/events?after=0")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(r.Body).Decode(&poll)
	r.Body.Close()
	if len(poll.Events) != 2 || poll.Events[0].Delta.Window != 0 || poll.Events[1].Delta.Window != 1 {
		t.Fatalf("long-poll events %+v", poll.Events)
	}
	// A cursor past the head long-polls until the next seal.
	done := make(chan struct{})
	go func() {
		defer close(done)
		r, err := client.Get(srv.URL + "/v1/streams/" + view.ID + "/events?after=" +
			fmt.Sprint(poll.Next) + "&wait=30s")
		if err != nil {
			return
		}
		defer r.Body.Close()
		var p2 struct {
			Events []streamEvent `json:"events"`
		}
		json.NewDecoder(r.Body).Decode(&p2)
		if len(p2.Events) != 1 || p2.Events[0].Delta.Window != 2 {
			t.Errorf("long-poll follow-up %+v", p2.Events)
		}
	}()
	time.Sleep(50 * time.Millisecond)
	postBytes(t, client, srv.URL+"/v1/streams/"+view.ID+"/bursts",
		encodeChunk(t, tr.Meta, bursts[120:150]), nil)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("long-poll never woke")
	}

	postJSON(t, client, srv.URL+"/v1/streams/"+view.ID+"/finish", nil, nil)

	// The SSE subscriber saw one "window" event per seal, then "finish".
	var kinds []string
	timeout := time.After(30 * time.Second)
	for {
		var kind string
		var ok bool
		select {
		case kind, ok = <-sseEvents:
		case <-timeout:
			t.Fatalf("SSE timed out after %v", kinds)
		}
		if !ok {
			t.Fatalf("SSE closed after %v", kinds)
		}
		kinds = append(kinds, kind)
		if kind == "finish" {
			break
		}
	}
	windows := 0
	for _, k := range kinds {
		if k == "window" {
			windows++
		}
	}
	if windows != 3 || kinds[len(kinds)-1] != "finish" {
		t.Fatalf("SSE events %v", kinds)
	}
}

// TestStreamBackpressureAndLimits covers the explicit 429 paths: too
// many in-flight chunks on one stream, and too many resident sessions.
func TestStreamBackpressureAndLimits(t *testing.T) {
	s := newTest(t, Config{Workers: 1, StreamMaxSessions: 1, StreamMaxPending: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	tr, bursts := streamTestTrace(t, 5)
	var view StreamView
	resp := postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		Label: "bp", Ranks: tr.Meta.Ranks, Window: stream.WindowSpec{CountN: 1000},
	}, &view)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}

	// Session cap: a second stream bounces with 429.
	r2 := postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		Label: "bp2", Window: stream.WindowSpec{CountN: 10},
	}, nil)
	if r2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second create: %d, want 429", r2.StatusCode)
	}
	if r2.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// Chunk backpressure: with the single slot occupied, a chunk bounces.
	e, _ := s.streams.get(view.ID)
	e.pending.Add(1)
	r3 := postBytes(t, client, srv.URL+"/v1/streams/"+view.ID+"/bursts",
		encodeChunk(t, tr.Meta, bursts[:5]), nil)
	if r3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("append under backpressure: %d, want 429", r3.StatusCode)
	}
	e.pending.Add(-1)
	if got := s.stm.backpressure.Value(); got != 2 {
		t.Fatalf("backpressure counter %d, want 2", got)
	}
	r4 := postBytes(t, client, srv.URL+"/v1/streams/"+view.ID+"/bursts",
		encodeChunk(t, tr.Meta, bursts[:5]), nil)
	if r4.StatusCode != http.StatusOK {
		t.Fatalf("append after backpressure cleared: %d", r4.StatusCode)
	}
}

// TestStreamValidationAndHealth covers the rejection paths and the
// stream sections of /healthz and /metrics.
func TestStreamValidationAndHealth(t *testing.T) {
	s := newTest(t, Config{Workers: 1})
	defer s.Shutdown(context.Background())
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	client := srv.Client()

	bad := []StreamRequest{
		{Window: stream.WindowSpec{}},                         // no windowing
		{Window: stream.WindowSpec{CountN: 5, WindowNS: 100}}, // both modes
		{Window: stream.WindowSpec{CountN: 5}, Metrics: []string{"nope"}},
		{Window: stream.WindowSpec{CountN: 5}, ID: "bad/id"},
		{Window: stream.WindowSpec{CountN: 5}, Series: "bad series"},
	}
	for i, req := range bad {
		if r := postJSON(t, client, srv.URL+"/v1/streams", req, nil); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad request %d: status %d, want 400", i, r.StatusCode)
		}
	}

	tr, bursts := streamTestTrace(t, 9)
	var view StreamView
	postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		ID: "dup", Label: "h", Ranks: tr.Meta.Ranks, Window: stream.WindowSpec{CountN: 64},
	}, &view)
	if r := postJSON(t, client, srv.URL+"/v1/streams", StreamRequest{
		ID: "dup", Window: stream.WindowSpec{CountN: 64},
	}, nil); r.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate id: status %d, want 409", r.StatusCode)
	}
	if r := postBytes(t, client, srv.URL+"/v1/streams/ghost/bursts", []byte("x"), nil); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown stream append: %d, want 404", r.StatusCode)
	}

	postBytes(t, client, srv.URL+"/v1/streams/dup/bursts", encodeChunk(t, tr.Meta, bursts[:80]), nil)
	postJSON(t, client, srv.URL+"/v1/streams/dup/finish", nil, nil)
	if r := postJSON(t, client, srv.URL+"/v1/streams/dup/finish", nil, nil); r.StatusCode != http.StatusConflict {
		t.Fatalf("double finish: status %d, want 409", r.StatusCode)
	}
	if r := postBytes(t, client, srv.URL+"/v1/streams/dup/bursts", encodeChunk(t, tr.Meta, bursts[:5]), nil); r.StatusCode != http.StatusConflict {
		t.Fatalf("append after finish: status %d, want 409", r.StatusCode)
	}

	h := s.Healthz()
	if h.Streams.Sessions != 1 || h.Streams.WindowCloses < 2 || h.Streams.Bursts != 80 {
		t.Fatalf("healthz streams section %+v", h.Streams)
	}
	var found bool
	for _, sh := range h.Streams.PerStream {
		if sh.ID == "dup" && sh.Closed && sh.Windows == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("per-stream health missing: %+v", h.Streams.PerStream)
	}

	r, err := client.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, m := range []string{
		"trackd_stream_sessions", "trackd_stream_bursts_total",
		"trackd_stream_window_closes_total", "trackd_stream_subscriber_lag",
		"trackd_stream_backpressure_total",
	} {
		if !strings.Contains(string(body), m) {
			t.Fatalf("/metrics missing %s", m)
		}
	}
}
