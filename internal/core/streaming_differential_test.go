package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/faults"
	"perftrack/internal/metrics"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// streamingConfig varies the pipeline configuration so both the
// incremental index path and every seal-time fallback get exercised.
func streamingConfig(seed uint64) Config {
	switch seed % 4 {
	case 0: // incremental-eligible, the service default
		return Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	case 1: // incremental-eligible with duration filter + cluster caps
		return Config{
			Cluster:            cluster.Config{Eps: 0.1, MinPts: 4, MaxClusters: 6},
			MinBurstDurationNS: 1000,
		}
	case 2: // estimator fallback: data-driven eps needs the whole window
		return Config{Cluster: cluster.Config{MinPts: 4}}
	default: // top-duration filter forces the batch fallback too
		return Config{
			Cluster:         cluster.Config{Eps: 0.07, MinPts: 4},
			TopDurationFrac: 0.9,
		}
	}
}

// canonWindows clones every window trace and lays it out in canonical
// (Task, StartNS, Thread) order — the sealed-window order contract the
// batch side of the differential gate evaluates against.
func canonWindows(windows []*trace.Trace) []*trace.Trace {
	out := make([]*trace.Trace, len(windows))
	for i, w := range windows {
		c := w.Clone()
		c.SortByTaskTime()
		out[i] = c
	}
	return out
}

func exportBytes(t *testing.T, res *Result, cfg Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, cfg.withDefaults().Metrics); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// pairDigest hashes the per-pair evidence the export does not carry:
// the bits of every entry of each pair's displacement, call-stack, SPMD
// and sequence matrices, plus the final relations. Two results with
// equal exports but different evaluator evidence digest differently.
func pairDigest(res *Result) string {
	h := sha256.New()
	put := func(v uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, v)) }
	putMatrix := func(m *Matrix) {
		if m == nil {
			put(math.MaxUint64)
			return
		}
		put(uint64(len(m.P)))
		for _, row := range m.P {
			put(uint64(len(row)))
			for _, v := range row {
				put(math.Float64bits(v))
			}
		}
	}
	putInts := func(xs []int) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(uint64(x))
		}
	}
	for _, pr := range res.Pairs {
		put(uint64(pr.From))
		put(uint64(pr.To))
		for _, m := range []*Matrix{pr.DispAB, pr.DispBA, pr.StackAB, pr.StackBA, pr.SPMDA, pr.SPMDB, pr.Seq} {
			putMatrix(m)
		}
		put(uint64(len(pr.Relations)))
		for _, r := range pr.Relations {
			putInts(r.A)
			putInts(r.B)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sealWindow appends one window's bursts to a fresh WindowBuilder in a
// seeded random permutation and seals it as frame index.
func sealWindow(t *testing.T, rng *rand.Rand, w *trace.Trace, index int, cfg Config) *Frame {
	t.Helper()
	wb, err := NewWindowBuilder(w.Meta, cfg)
	if err != nil {
		t.Fatalf("window %d: NewWindowBuilder: %v", index, err)
	}
	for _, bi := range rng.Perm(len(w.Bursts)) {
		wb.Accept(w.Bursts[bi])
	}
	f, err := wb.Seal(index)
	if err != nil {
		t.Fatalf("window %d: Seal: %v", index, err)
	}
	return f
}

// replayWindows drives the streaming ingest/evaluate split over the
// given windows, appending each window's bursts in a seeded random
// permutation, and returns the evaluation export and pair digest after
// every window.
func replayWindows(t *testing.T, seed uint64, windows []*trace.Trace, cfg Config) ([][]byte, []string) {
	t.Helper()
	st, err := NewSeqTracker(cfg)
	if err != nil {
		t.Fatalf("NewSeqTracker: %v", err)
	}
	rng := rand.New(rand.NewPCG(seed, 0x57f3a))
	var exports [][]byte
	var digests []string
	for wi, w := range windows {
		if err := st.Append(sealWindow(t, rng, w, wi, cfg)); err != nil {
			t.Fatalf("window %d: Append: %v", wi, err)
		}
		res, err := st.Evaluate(context.Background())
		if err != nil {
			t.Fatalf("window %d: Evaluate: %v", wi, err)
		}
		exports = append(exports, exportBytes(t, res, cfg))
		digests = append(digests, pairDigest(res))
	}
	return exports, digests
}

// batchPrefix runs the batch pipeline over the first n canonical
// windows and returns the export bytes and pair digest.
func batchPrefix(t *testing.T, canon []*trace.Trace, n int, cfg Config) ([]byte, string) {
	t.Helper()
	frames, err := BuildFramesContext(context.Background(), canon[:n], cfg)
	if err != nil {
		t.Fatalf("prefix %d: BuildFrames: %v", n, err)
	}
	res, err := NewTracker(cfg).TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatalf("prefix %d: Track: %v", n, err)
	}
	return exportBytes(t, res, cfg), pairDigest(res)
}

// TestStreamingWindowDifferential is the heart of the streaming gate:
// replaying seeded traces window-by-window through the incremental
// split (WindowBuilder + SeqTracker) yields, after EVERY window, a
// result byte-identical with the batch pipeline run from scratch over
// the same window boundaries — across incremental-eligible and
// fallback configurations, with bursts appended in random order.
func TestStreamingWindowDifferential(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		tr := oracle.GenTraces(seed, "stream", 4+int(seed%3), 6, 2+int(seed%2))
		windows := tr.SplitWindows(4 + int(seed%3))
		cfg := streamingConfig(seed)
		canon := canonWindows(windows)
		got, gotDigest := replayWindows(t, seed, windows, cfg)
		for n := 1; n <= len(windows); n++ {
			want, wantDigest := batchPrefix(t, canon, n, cfg)
			if !bytes.Equal(got[n-1], want) {
				t.Fatalf("seed %d: streaming export after window %d diverges from batch (%d vs %d bytes)",
					seed, n, len(got[n-1]), len(want))
			}
			if gotDigest[n-1] != wantDigest {
				t.Fatalf("seed %d: streaming pair evidence after window %d diverges from batch", seed, n)
			}
		}
	}
}

// TestStreamingFaultInjectionDifferential replays fault-injected traces:
// every in-memory injector at 10%% severity corrupts the trace before
// windowing, and the streaming replay must still match batch bit-exactly
// window by window — quarantine accounting included.
func TestStreamingFaultInjectionDifferential(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		base := oracle.GenTraces(seed, "faulty", 4, 6, 2)
		for fi, inj := range faults.TraceInjectors(0.10) {
			faulty, _ := inj.Apply(base, seed)
			windows := faulty.SplitWindows(4)
			cfg := streamingConfig(seed + uint64(fi))
			canon := canonWindows(windows)
			got, _ := replayWindows(t, seed^uint64(fi)<<8, windows, cfg)
			for n := 1; n <= len(windows); n++ {
				want, _ := batchPrefix(t, canon, n, cfg)
				if !bytes.Equal(got[n-1], want) {
					t.Fatalf("seed %d injector %s: streaming diverges after window %d", seed, inj.Name(), n)
				}
			}
		}
	}
}

// TestStreamingDegradedWindowsDifferential forces empty and collapsed
// windows into the stream (a window with zero bursts, windows arriving
// after quarantine removed everything) and checks the bridging and
// degraded accounting match batch.
func TestStreamingDegradedWindowsDifferential(t *testing.T) {
	tr := oracle.GenTraces(7, "gaps", 4, 6, 3)
	windows := tr.SplitWindows(5)
	// Empty one window entirely and poison another so quarantine drops
	// every burst (batch marks both degraded and bridges across).
	windows[1].Bursts = nil
	for i := range windows[3].Bursts {
		windows[3].Bursts[i].DurationNS = -1
	}
	for _, cfgSeed := range []uint64{0, 2} {
		cfg := streamingConfig(cfgSeed)
		canon := canonWindows(windows)
		got, gotDigest := replayWindows(t, 99+cfgSeed, windows, cfg)
		for n := 1; n <= len(windows); n++ {
			want, wantDigest := batchPrefix(t, canon, n, cfg)
			if !bytes.Equal(got[n-1], want) {
				t.Fatalf("cfg %d: degraded-window streaming diverges after window %d", cfgSeed, n)
			}
			if gotDigest[n-1] != wantDigest {
				t.Fatalf("cfg %d: degraded-window pair evidence diverges after window %d", cfgSeed, n)
			}
		}
	}
}

// TestWindowBuilderAcceptClassification pins the per-burst accept
// statuses against the batch quarantine/filter semantics.
func TestWindowBuilderAcceptClassification(t *testing.T) {
	cfg := Config{
		Cluster:            cluster.Config{Eps: 0.1, MinPts: 3},
		MinBurstDurationNS: 100,
	}
	meta := trace.Metadata{Label: "accept", Ranks: 2}
	wb, err := NewWindowBuilder(meta, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ctrs metrics.CounterVector
	ctrs[metrics.CtrInstructions] = 1e6
	ctrs[metrics.CtrCycles] = 1e6
	good := trace.Burst{Task: 0, StartNS: 10, DurationNS: 500, Counters: ctrs}
	if st, _ := wb.Accept(good); st != BurstAccepted {
		t.Fatalf("good burst: status %v", st)
	}
	short := good
	short.DurationNS = 50
	if st, _ := wb.Accept(short); st != BurstFiltered {
		t.Fatalf("short burst: status %v", st)
	}
	bad := good
	bad.Task = 7 // out of the 2-rank range
	st, fault := wb.Accept(bad)
	if st != BurstQuarantined || fault != "task-out-of-range" {
		t.Fatalf("bad burst: status %v fault %q", st, fault)
	}
	if wb.Len() != 1 {
		t.Fatalf("window holds %d bursts, want 1", wb.Len())
	}
	f, err := wb.Seal(0)
	if err != nil {
		t.Fatal(err)
	}
	if f.Quarantined != 1 || f.QuarantinedBy["task-out-of-range"] != 1 {
		t.Fatalf("quarantine accounting: %d %v", f.Quarantined, f.QuarantinedBy)
	}
}
