package stream

import (
	"bytes"
	"context"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/faults"
	"perftrack/internal/metrics"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

func pipelineConfig(variant uint64) core.Config {
	switch variant % 4 {
	case 0:
		return core.Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	case 1:
		return core.Config{
			Cluster:            cluster.Config{Eps: 0.1, MinPts: 4, MaxClusters: 6},
			MinBurstDurationNS: 1000,
		}
	case 2:
		return core.Config{Cluster: cluster.Config{MinPts: 4}}
	default:
		return core.Config{
			Cluster:         cluster.Config{Eps: 0.07, MinPts: 4},
			TopDurationFrac: 0.9,
		}
	}
}

func metricSpace(cfg core.Config) []metrics.Metric { return pipelineMetrics(cfg) }

// batchExport runs the batch pipeline over the given window traces
// (canonically sorted clones) and returns export bytes, or the error.
func batchExport(t *testing.T, windows []*trace.Trace, cfg core.Config) ([]byte, error) {
	t.Helper()
	canon := make([]*trace.Trace, len(windows))
	for i, w := range windows {
		c := w.Clone()
		c.SortByTaskTime()
		canon[i] = c
	}
	frames, err := core.BuildFramesContext(context.Background(), canon, cfg)
	if err != nil {
		return nil, err
	}
	res, err := core.NewTracker(cfg).TrackContext(context.Background(), frames)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, metricSpace(cfg)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes(), nil
}

func resultBytes(t *testing.T, res *core.Result, cfg core.Config) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf, metricSpace(cfg)); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// checkDeltas compares every sealed window's evaluation against the
// batch pipeline over the same prefix of window traces.
func checkDeltas(t *testing.T, tag string, deltas []*Delta, windows []*trace.Trace, cfg core.Config) {
	t.Helper()
	if len(deltas) != len(windows) {
		t.Fatalf("%s: sealed %d windows, want %d", tag, len(deltas), len(windows))
	}
	for n := 1; n <= len(windows); n++ {
		d := deltas[n-1]
		if d.Window != n-1 {
			t.Fatalf("%s: delta %d has window %d", tag, n-1, d.Window)
		}
		want, batchErr := batchExport(t, windows[:n], cfg)
		if batchErr != nil {
			if d.EvalError != batchErr.Error() {
				t.Fatalf("%s: window %d: eval error %q, batch error %q", tag, n-1, d.EvalError, batchErr)
			}
			continue
		}
		if d.EvalError != "" {
			t.Fatalf("%s: window %d: unexpected eval error %q", tag, n-1, d.EvalError)
		}
		got := resultBytes(t, d.Result, cfg)
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: window %d: streaming export diverges from batch (%d vs %d bytes)",
				tag, n-1, len(got), len(want))
		}
	}
}

// replayDuration feeds the trace into a duration-windowed session in
// arrival order and returns the deltas plus the batch-equivalent
// window traces (SplitWindows over the same boundaries).
func replayDuration(t *testing.T, tr *trace.Trace, nWin int, cfg core.Config) ([]*Delta, []*trace.Trace) {
	t.Helper()
	// A live producer appends in time order; the session's late-drop
	// policy only concerns stragglers (covered by the policy tests).
	ordered := tr.Clone()
	ordered.SortByTime()
	start, end := tr.Span()
	width := (end - start + int64(nWin) - 1) / int64(nWin)
	sess, err := New(Config{
		Meta:     tr.Meta,
		Window:   WindowSpec{WindowNS: width, OriginNS: start, MaxWindows: nWin},
		Pipeline: cfg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	var deltas []*Delta
	for _, b := range ordered.Bursts {
		res, err := sess.Append(ctx, b)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		deltas = append(deltas, res.Sealed...)
	}
	fin, err := sess.Finish(ctx, nWin)
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	deltas = append(deltas, fin...)
	return deltas, tr.SplitWindows(nWin)
}

// TestStreamReplayDifferential is the subsystem's differential gate:
// ~150 seeded oracle scenarios (seeds × config variants × window
// shapes) replayed live through a Session are bit-exact, after every
// window close, with the batch pipeline over the same boundaries.
func TestStreamReplayDifferential(t *testing.T) {
	count := 0
	for seed := uint64(0); seed < 40; seed++ {
		ranks := 3 + int(seed%4)
		phases := 2 + int(seed%2)
		tr := oracle.GenTraces(seed, "live", ranks, 5, phases)
		for _, variant := range []uint64{seed, seed + 1} {
			cfg := pipelineConfig(variant)
			nWin := 3 + int((seed+variant)%3)
			deltas, windows := replayDuration(t, tr, nWin, cfg)
			checkDeltas(t, "duration", deltas, windows, cfg)
			count++
		}
	}
	if count < 80 {
		t.Fatalf("only %d scenario replays", count)
	}
}

// TestStreamCountWindowsDifferential checks the count-based windowing
// mode: every N appended bursts close a window, equivalent to a batch
// pipeline chunking the input every N bursts in arrival order.
func TestStreamCountWindowsDifferential(t *testing.T) {
	for seed := uint64(0); seed < 12; seed++ {
		tr := oracle.GenTraces(seed, "chunked", 4, 4, 2)
		cfg := pipelineConfig(seed)
		n := 40 + int(seed%3)*17
		sess, err := New(Config{
			Meta:     tr.Meta,
			Window:   WindowSpec{CountN: n},
			Pipeline: cfg,
		})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		var deltas []*Delta
		for _, b := range tr.Bursts {
			res, err := sess.Append(ctx, b)
			if err != nil {
				t.Fatal(err)
			}
			deltas = append(deltas, res.Sealed...)
		}
		fin, err := sess.Finish(ctx, 0)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, fin...)
		// Batch equivalent: chunk the arrival sequence every n bursts.
		var windows []*trace.Trace
		for i := 0; i < len(tr.Bursts); i += n {
			end := min(i+n, len(tr.Bursts))
			w := &trace.Trace{Meta: tr.Meta, Bursts: tr.Bursts[i:end]}
			w.Meta.Label = deltas[len(windows)].Label
			windows = append(windows, w)
		}
		checkDeltas(t, "count", deltas, windows, cfg)
	}
}

// TestStreamFaultInjectionDifferential replays fault-injected traces
// through live sessions: corrupt bursts quarantine at append, clock
// skews move bursts across windows (or drop them as early/late), and
// the sealed sequence still matches batch bit-exactly.
func TestStreamFaultInjectionDifferential(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		base := oracle.GenTraces(seed, "faulty", 4, 5, 2)
		for fi, inj := range faults.TraceInjectors(0.10) {
			faulty, _ := inj.Apply(base, seed)
			cfg := pipelineConfig(seed + uint64(fi))
			deltas, windows := replayDuration(t, faulty, 4, cfg)
			checkDeltas(t, "fault-"+inj.Name(), deltas, windows, cfg)
		}
	}
}
