package stream

import (
	"context"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// benchTrace builds a 10-window stream workload: a seeded oracle trace
// heavy enough that clustering dominates, split by time.
func benchTrace(b *testing.B) (*trace.Trace, []*trace.Trace, core.Config) {
	b.Helper()
	tr := oracle.GenTraces(42, "bench", 32, 40, 2)
	cfg := core.Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	windows := tr.SplitWindows(10)
	return tr, windows, cfg
}

// seedSession replays the first nine windows into a fresh session and
// appends the tenth window's bursts, leaving it one Finish away from
// the measured close.
func seedSession(b *testing.B, tr *trace.Trace, cfg core.Config) *Session {
	b.Helper()
	ordered := tr.Clone()
	ordered.SortByTime()
	start, end := tr.Span()
	width := (end - start + 9) / 10
	sess, err := New(Config{
		Meta:     tr.Meta,
		Window:   WindowSpec{WindowNS: width, OriginNS: start, MaxWindows: 10},
		Pipeline: cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, bu := range ordered.Bursts {
		if _, err := sess.Append(ctx, bu); err != nil {
			b.Fatal(err)
		}
	}
	if sess.Windows() != 9 {
		b.Fatalf("expected 9 sealed windows before the measured close, have %d", sess.Windows())
	}
	return sess
}

// BenchmarkWindowClose10Incremental measures the steady-state cost of
// closing the 10th window on a live session: one window's clustering
// seal, one new frame-pair correlation, and the chain/delta rebuild.
func BenchmarkWindowClose10Incremental(b *testing.B) {
	tr, _, cfg := benchTrace(b)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sess := seedSession(b, tr, cfg)
		b.StartTimer()
		deltas, err := sess.Finish(ctx, 10)
		if err != nil {
			b.Fatal(err)
		}
		if len(deltas) != 1 || deltas[0].EvalError != "" {
			b.Fatalf("close failed: %+v", deltas)
		}
	}
}

// BenchmarkWindowClose10BatchRerun measures the alternative the
// incremental path replaces: re-running the whole batch pipeline over
// the ten accumulated windows when the last one arrives.
func BenchmarkWindowClose10BatchRerun(b *testing.B) {
	_, windows, cfg := benchTrace(b)
	canon := make([]*trace.Trace, len(windows))
	for i, w := range windows {
		c := w.Clone()
		c.SortByTaskTime()
		canon[i] = c
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frames, err := core.BuildFramesContext(context.Background(), canon, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.NewTracker(cfg).TrackContext(context.Background(), frames); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamAppend measures the per-burst append cost in the
// middle of a window (no seal): quarantine check, metric evaluation,
// and the incremental index insertion.
func BenchmarkStreamAppend(b *testing.B) {
	tr, _, cfg := benchTrace(b)
	ordered := tr.Clone()
	ordered.SortByTime()
	start, end := tr.Span()
	width := end - start + 1 // one giant window: appends never seal
	sess, err := New(Config{
		Meta:     tr.Meta,
		Window:   WindowSpec{WindowNS: width, OriginNS: start},
		Pipeline: cfg,
	})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Append(ctx, ordered.Bursts[i%len(ordered.Bursts)]); err != nil {
			b.Fatal(err)
		}
	}
}
