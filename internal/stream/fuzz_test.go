package stream

import (
	"bytes"
	"context"
	"testing"

	"perftrack/internal/core"
	"perftrack/internal/faults"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// FuzzStreamAppend feeds fault-injected byte streams into the append
// path: whatever a lenient decode salvages is appended burst-by-burst
// into a count-windowed session, and the final evaluation must stay
// bit-exact with the batch pipeline over the same chunks. The seed
// corpus covers clean encodings plus every byte-level injector.
func FuzzStreamAppend(f *testing.F) {
	base := oracle.GenTraces(1, "fz", 3, 3, 2)
	var buf bytes.Buffer
	if err := trace.Write(&buf, base); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes(), uint64(23))
	for i, bi := range faults.ByteInjectors(0.05) {
		data, _ := bi.ApplyBytes(buf.Bytes(), uint64(7+i))
		f.Add(data, uint64(11+i))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint64) {
		if len(data) > 1<<16 {
			return
		}
		tr, _, err := trace.ReadWith(bytes.NewReader(data), trace.DecodeOptions{Strict: false})
		if err != nil || tr == nil || len(tr.Bursts) == 0 {
			return
		}
		if len(tr.Bursts) > 384 {
			tr.Bursts = tr.Bursts[:384]
		}
		countN := int(n%96) + 32
		cfg := pipelineConfig(n)
		sess, err := New(Config{
			Meta:     tr.Meta,
			Window:   WindowSpec{CountN: countN},
			Pipeline: cfg,
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		ctx := context.Background()
		var deltas []*Delta
		for _, b := range tr.Bursts {
			res, err := sess.Append(ctx, b)
			if err != nil {
				t.Fatalf("Append: %v", err)
			}
			deltas = append(deltas, res.Sealed...)
		}
		fin, err := sess.Finish(ctx, 0)
		if err != nil {
			t.Fatalf("Finish: %v", err)
		}
		deltas = append(deltas, fin...)
		if len(deltas) == 0 {
			return
		}
		// Batch equivalent of the full stream: arrival-order chunks.
		var windows []*trace.Trace
		for i := 0; i < len(tr.Bursts); i += countN {
			end := min(i+countN, len(tr.Bursts))
			w := &trace.Trace{Meta: tr.Meta, Bursts: tr.Bursts[i:end]}
			w.Meta.Label = deltas[len(windows)].Label
			windows = append(windows, w)
		}
		if len(windows) != len(deltas) {
			t.Fatalf("%d windows sealed, want %d", len(deltas), len(windows))
		}
		final := deltas[len(deltas)-1]
		want, batchErr := batchExportFuzz(windows, cfg)
		if batchErr != nil {
			if final.EvalError != batchErr.Error() {
				t.Fatalf("eval error %q, batch error %q", final.EvalError, batchErr)
			}
			return
		}
		if final.EvalError != "" {
			t.Fatalf("unexpected eval error %q", final.EvalError)
		}
		var got bytes.Buffer
		if err := final.Result.WriteJSON(&got, metricSpace(cfg)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatal("streaming export diverges from batch on fuzzed input")
		}
	})
}

// batchExportFuzz is batchExport without the *testing.T plumbing (fuzz
// workers pass a different T).
func batchExportFuzz(windows []*trace.Trace, cfg core.Config) ([]byte, error) {
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
	if err := res.WriteJSON(&buf, pipelineMetrics(cfg)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
