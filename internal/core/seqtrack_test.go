package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"sync/atomic"
	"testing"

	"perftrack/internal/metrics"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// errAfterCtx is a context whose Err turns to context.Canceled after
// left calls, so a test can cancel an evaluation at every point the
// pipeline polls, not only before it starts.
type errAfterCtx struct {
	context.Context
	left atomic.Int64
}

func errAfter(n int64) *errAfterCtx {
	c := &errAfterCtx{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *errAfterCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

func cancelledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

// spmdByFrame collects each frame's SPMD matrix from the pairs that
// reference it.
func spmdByFrame(res *Result) map[int]*Matrix {
	out := map[int]*Matrix{}
	for _, pr := range res.Pairs {
		out[pr.From] = pr.SPMDA
		out[pr.To] = pr.SPMDB
	}
	return out
}

// TestSeqTrackerReusesCachedWork checks that the stream really skips
// the work it has done before. The differential gates cannot see a lost
// cache, because recomputed evidence is identical; pointer identity
// can. Windows repeating one window's bursts leave the epoch alone, so
// every earlier pair and every frame's SPMD matrix must come back as
// the same pointers. A window that widens a range invalidates the
// pairs, but the SPMD matrices depend only on labels and stay cached.
func TestSeqTrackerReusesCachedWork(t *testing.T) {
	cfg := streamingConfig(0)
	base := oracle.GenTraces(3, "reuse", 4, 6, 3)
	wide := base.Clone()
	for i := range wide.Bursts {
		wide.Bursts[i].Counters[metrics.CtrInstructions] *= 16
		wide.Bursts[i].Counters[metrics.CtrCycles] *= 16
	}
	st, err := NewSeqTracker(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 0x57f3a))
	evaluate := func(w *trace.Trace) *Result {
		t.Helper()
		if err := st.Append(sealWindow(t, rng, w, st.Len(), cfg)); err != nil {
			t.Fatal(err)
		}
		res, err := st.Evaluate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	prev := evaluate(base)
	epoch := st.Epoch()
	for n := 2; n <= 4; n++ {
		res := evaluate(base)
		if st.Epoch() != epoch {
			t.Fatalf("window %d: repeated bursts moved the epoch %d -> %d", n, epoch, st.Epoch())
		}
		if len(res.Pairs) != n-1 {
			t.Fatalf("window %d: %d pairs, want %d", n, len(res.Pairs), n-1)
		}
		for k, pr := range prev.Pairs {
			if res.Pairs[k] != pr {
				t.Fatalf("window %d: pair %d->%d was recomputed", n, pr.From, pr.To)
			}
		}
		got := spmdByFrame(res)
		for fi, m := range spmdByFrame(prev) {
			if got[fi] != m {
				t.Fatalf("window %d: SPMD matrix of frame %d was recomputed", n, fi)
			}
		}
		prev = res
	}

	res := evaluate(wide)
	if st.Epoch() == epoch {
		t.Fatal("a window of 16x wider counters left the epoch unchanged")
	}
	for k, pr := range prev.Pairs {
		if res.Pairs[k] == pr {
			t.Fatalf("pair %d->%d survived a range widening", pr.From, pr.To)
		}
	}
	got := spmdByFrame(res)
	for fi, m := range spmdByFrame(prev) {
		if got[fi] != m {
			t.Fatalf("SPMD matrix of frame %d was recomputed after a range widening", fi)
		}
	}

	canon := canonWindows([]*trace.Trace{base, base, base, base, wide})
	want, wantDigest := batchPrefix(t, canon, len(canon), cfg)
	if !bytes.Equal(exportBytes(t, res, cfg), want) || pairDigest(res) != wantDigest {
		t.Fatal("cached stream result diverges from batch")
	}
}

// TestSeqTrackerEvaluateCancel cancels the stream's evaluation before it
// starts and at every later point it polls the context, both with every
// frame's work still to do (cold) and with only the last window's
// (warm). A cancelled Evaluate returns context.Canceled and must leave
// no partial cache entry behind: the next uncancelled Evaluate is
// export- and digest-equal with batch.
func TestSeqTrackerEvaluateCancel(t *testing.T) {
	cfg := streamingConfig(0)
	windows := oracle.GenTraces(5, "cancel", 4, 6, 3).SplitWindows(4)
	want, wantDigest := batchPrefix(t, canonWindows(windows), len(windows), cfg)
	check := func(what string, res *Result) {
		t.Helper()
		if !bytes.Equal(exportBytes(t, res, cfg), want) || pairDigest(res) != wantDigest {
			t.Fatalf("%s diverges from batch", what)
		}
	}
	// replay appends every window, evaluating all but the last when warm.
	replay := func(warm bool) *SeqTracker {
		t.Helper()
		st, err := NewSeqTracker(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(5, 0x57f3a))
		for wi, w := range windows {
			if err := st.Append(sealWindow(t, rng, w, wi, cfg)); err != nil {
				t.Fatal(err)
			}
			if warm && wi+1 < len(windows) {
				if _, err := st.Evaluate(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
		}
		return st
	}
	for _, warm := range []bool{false, true} {
		st := replay(warm)
		if _, err := st.Evaluate(cancelledCtx()); !errors.Is(err, context.Canceled) {
			t.Fatalf("warm=%v: Evaluate on a cancelled ctx = %v, want context.Canceled", warm, err)
		}
		res, err := st.Evaluate(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check("Evaluate after a cancelled Evaluate", res)
		for n := int64(0); ; n++ {
			if n > 1000 {
				t.Fatalf("warm=%v: Evaluate still cancelled after %d polls", warm, n)
			}
			st := replay(warm)
			res, err := st.Evaluate(errAfter(n))
			if err == nil {
				check("an Evaluate that outran its cancel", res)
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("warm=%v: Evaluate cancelled after %d polls: %v", warm, n, err)
			}
			if res, err = st.Evaluate(context.Background()); err != nil {
				t.Fatal(err)
			}
			check("Evaluate after a mid-evaluation cancel", res)
		}
	}
}

// TestTrackContextCancel cancels the batch tracker before it starts and
// at every later point it polls the context: it returns context.Canceled
// until the cancel comes too late to matter, and then the uncancelled
// result.
func TestTrackContextCancel(t *testing.T) {
	cfg := streamingConfig(0)
	traces := oracle.GenTraces(6, "cancel", 4, 6, 3).SplitWindows(4)
	frames, err := BuildFramesContext(context.Background(), traces, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tk := NewTracker(cfg)
	if _, err := tk.TrackContext(cancelledCtx(), frames); !errors.Is(err, context.Canceled) {
		t.Fatalf("TrackContext on a cancelled ctx = %v, want context.Canceled", err)
	}
	full, err := tk.TrackContext(context.Background(), frames)
	if err != nil {
		t.Fatal(err)
	}
	want, wantDigest := exportBytes(t, full, cfg), pairDigest(full)
	for n := int64(0); ; n++ {
		if n > 1000 {
			t.Fatalf("TrackContext still cancelled after %d polls", n)
		}
		res, err := tk.TrackContext(errAfter(n), frames)
		if err == nil {
			if !bytes.Equal(exportBytes(t, res, cfg), want) || pairDigest(res) != wantDigest {
				t.Fatalf("TrackContext that outran a cancel after %d polls diverges", n)
			}
			break
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("TrackContext cancelled after %d polls: %v", n, err)
		}
	}
}
