package core

import (
	"context"
	"fmt"

	"perftrack/internal/metrics"
)

// This file is the evaluate half of the streaming split. A SeqTracker
// holds a growing frame sequence and re-evaluates it after every
// appended window through the same Tracker.evaluate the batch pipeline
// runs, producing a Result bit-exact with Analyze over the whole
// sequence, while only paying for what actually changed:
//
//   - cross-series normalisation ranges are maintained incrementally
//     (Range.Extend is a commutative min/max, so the running ranges
//     equal the batch ranges exactly); frames are renormalised only
//     when a new window actually widens a range ("epoch" bump);
//   - per-frame machinery (consensus, SPMD matrix and pairs) depends
//     only on labels/trace, which are immutable after sealing, so it is
//     computed once per frame, ever;
//   - pair correlations depend on normalised coordinates, so they are
//     cached per (from,to) pair until the next epoch bump;
//   - the degraded-collapse rule (markCollapsed) is re-applied over the
//     sealed frames' intrinsic flags every close, which is exactly the
//     batch marking.
//
// The relation chaining and diagnostics are rebuilt every close; both
// are cheap relative to one window's clustering.
type SeqTracker struct {
	cfg Config
	tk  *Tracker

	frames []*Frame
	// tcoords holds each frame's rank-scaled, log-transformed metric
	// coordinates (normalizeSeries pass 1), flat-strided, immutable.
	tcoords [][]float64
	// intrinsic degraded state as sealed, before the collapse rule.
	intrinsicDegraded []bool
	intrinsicReason   []string

	ranges []metrics.Range
	// epoch counts range widenings; normEpoch[i] is the epoch frame i's
	// Norm and Clusters were last filled at.
	epoch     int
	normEpoch []int

	fe        []*frameEval
	pairCache map[[2]int]*PairResult
}

// NewSeqTracker prepares an incremental tracker for a stream session.
func NewSeqTracker(cfg Config) (*SeqTracker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &SeqTracker{
		cfg:       cfg,
		tk:        NewTracker(cfg),
		ranges:    make([]metrics.Range, len(cfg.Metrics)),
		epoch:     1,
		pairCache: map[[2]int]*PairResult{},
	}
	for d := range s.ranges {
		s.ranges[d] = metrics.EmptyRange()
	}
	return s, nil
}

// Len returns the number of appended frames.
func (s *SeqTracker) Len() int { return len(s.frames) }

// Frames exposes the appended sequence (shared, do not mutate).
func (s *SeqTracker) Frames() []*Frame { return s.frames }

// Epoch returns the current normalisation epoch; it advances only when
// a window widened a metric range (forcing a series renormalisation).
func (s *SeqTracker) Epoch() int { return s.epoch }

// Append files one sealed frame into the sequence. The frame's index
// must equal Len() — windows arrive in order.
func (s *SeqTracker) Append(f *Frame) error {
	if f.Index != len(s.frames) {
		return fmt.Errorf("core: appended frame index %d, want %d", f.Index, len(s.frames))
	}
	dims := len(s.cfg.Metrics)
	flat := make([]float64, len(f.Points)*dims)
	grown := false
	for i, p := range f.Points {
		q := transformSpaceInto(flat[i*dims:(i+1)*dims:(i+1)*dims], s.cfg.Metrics, p, float64(f.Ranks))
		for d, v := range q {
			before := s.ranges[d]
			s.ranges[d].Extend(v)
			if s.ranges[d] != before {
				grown = true
			}
		}
	}
	if grown {
		s.epoch++
		// Displacement/sequence evidence reads normalised coordinates;
		// every cached pair is stale once the ranges move.
		clear(s.pairCache)
	}
	s.frames = append(s.frames, f)
	s.tcoords = append(s.tcoords, flat)
	s.intrinsicDegraded = append(s.intrinsicDegraded, f.Degraded)
	s.intrinsicReason = append(s.intrinsicReason, f.DegradedReason)
	s.normEpoch = append(s.normEpoch, 0)
	s.fe = append(s.fe, nil)
	return nil
}

// Evaluate re-runs the tracking pipeline over the appended sequence.
// The Result is bit-exact with Analyze over the same sealed window
// traces. It remains valid until the next Append (a later
// renormalisation rewrites Frame.Norm and Clusters in place).
func (s *SeqTracker) Evaluate(ctx context.Context) (*Result, error) {
	if len(s.frames) == 0 {
		return nil, fmt.Errorf("core: no frames to track")
	}
	// Effective degraded flags: intrinsic reasons are sticky, the
	// collapse rule is re-derived over the whole sequence like batch.
	for i, f := range s.frames {
		f.Degraded, f.DegradedReason = s.intrinsicDegraded[i], s.intrinsicReason[i]
	}
	markCollapsed(s.frames)
	if err := allDegraded(s.frames); err != nil {
		return nil, err
	}

	// Renormalise frames whose Norm predates the current ranges, and
	// refill their cluster summaries (centroids live in Norm space).
	dims := len(s.cfg.Metrics)
	for i, f := range s.frames {
		if s.normEpoch[i] == s.epoch {
			continue
		}
		flat := make([]float64, len(f.Points)*dims)
		f.Norm = make([][]float64, len(f.Points))
		tc := s.tcoords[i]
		for p := range f.Points {
			q := flat[p*dims : (p+1)*dims : (p+1)*dims]
			for d := 0; d < dims; d++ {
				q[d] = s.ranges[d].Normalize(tc[p*dims+d])
			}
			f.Norm[p] = q
		}
		f.fillClusterInfo(s.cfg)
		s.normEpoch[i] = s.epoch
	}

	return s.tk.evaluate(ctx, s.frames, s.fe, s.pairCache)
}
