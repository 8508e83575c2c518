// Package stream implements live trace ingestion: a resident Session
// accepts bursts one at a time, windows them by time or count, seals
// each window into a frame through the incremental clustering index,
// and re-evaluates the tracked study after every close — emitting a
// rolling Delta per window.
//
// The correctness anchor is differential: replaying a trace through a
// Session, window by window, is bit-exact with running the batch
// pipeline (core.Analyze) over the same window boundaries. The canonical
// window order contract makes that precise: a sealed window's trace is
// its accepted bursts in a stable (Task, StartNS, Thread) sort of arrival
// order, so the labels are invariant under burst permutations within a
// window.
package stream

import (
	"context"
	"fmt"

	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// DefaultMaxWindows caps the window horizon: one far-future timestamp
// must not make the session seal (and evaluate) an unbounded run of
// empty windows.
const DefaultMaxWindows = 4096

// WindowSpec selects how the stream is cut into windows. Exactly one
// of WindowNS (fixed-duration windows) or CountN (every N appended
// bursts) must be positive.
type WindowSpec struct {
	// WindowNS is the fixed window width; window k covers
	// [OriginNS + k*WindowNS, OriginNS + (k+1)*WindowNS).
	WindowNS int64 `json:"windowNs,omitempty"`
	// OriginNS is the time origin of window 0. Bursts starting before
	// it are dropped as early.
	OriginNS int64 `json:"originNs,omitempty"`
	// CountN closes a window after every N appended bursts (counted in
	// arrival order, before quarantine/filtering, matching a batch
	// pipeline that chunks the input trace every N lines).
	CountN int `json:"countN,omitempty"`
	// MaxWindows bounds the total number of windows (0 = DefaultMaxWindows).
	MaxWindows int `json:"maxWindows,omitempty"`
}

// Validate rejects contradictory window specifications.
func (w WindowSpec) Validate() error {
	switch {
	case w.WindowNS > 0 && w.CountN > 0:
		return fmt.Errorf("stream: both WindowNS and CountN set")
	case w.WindowNS <= 0 && w.CountN <= 0:
		return fmt.Errorf("stream: one of WindowNS or CountN must be positive")
	case w.WindowNS < 0 || w.CountN < 0 || w.MaxWindows < 0:
		return fmt.Errorf("stream: negative window parameter")
	case w.OriginNS != 0 && w.WindowNS <= 0:
		return fmt.Errorf("stream: OriginNS needs duration windows")
	}
	return nil
}

func (w WindowSpec) maxWindows() int {
	if w.MaxWindows > 0 {
		return w.MaxWindows
	}
	return DefaultMaxWindows
}

// Config describes one streaming session.
type Config struct {
	// Meta carries the experiment label (window frames are labelled
	// "<label>/w<k+1>", like trace.SplitWindows) and the rank count
	// used for quarantine and scale normalisation.
	Meta trace.Metadata
	// Window cuts the stream.
	Window WindowSpec
	// Pipeline configures the tracking pipeline, exactly as for batch.
	Pipeline core.Config
}

// AppendStatus classifies the fate of one appended burst.
type AppendStatus int

const (
	// Accepted: the burst joined the open window.
	Accepted AppendStatus = iota
	// Quarantined: the burst was corrupt (fault class in Fault).
	Quarantined
	// Filtered: dropped by the minimum-duration filter.
	Filtered
	// DroppedEarly: the burst starts before the stream origin.
	DroppedEarly
	// DroppedLate: the burst belongs to an already-sealed window.
	DroppedLate
	// RejectedHorizon: the burst's timestamp lies beyond MaxWindows.
	RejectedHorizon
)

// String names the status for logs and metrics labels.
func (s AppendStatus) String() string {
	switch s {
	case Accepted:
		return "accepted"
	case Quarantined:
		return "quarantined"
	case Filtered:
		return "filtered"
	case DroppedEarly:
		return "dropped-early"
	case DroppedLate:
		return "dropped-late"
	case RejectedHorizon:
		return "rejected-horizon"
	}
	return "unknown"
}

// AppendResult reports what one Append did: the burst's own fate plus
// any windows the append sealed on its way (a burst for a future
// window seals everything before it).
type AppendResult struct {
	Status AppendStatus
	Fault  string
	Sealed []*Delta
}

// Stats is a snapshot of the session's counters.
type Stats struct {
	Appended        int64 `json:"appended"`
	Accepted        int64 `json:"accepted"`
	Quarantined     int64 `json:"quarantined"`
	Filtered        int64 `json:"filtered"`
	DroppedEarly    int64 `json:"droppedEarly"`
	DroppedLate     int64 `json:"droppedLate"`
	RejectedHorizon int64 `json:"rejectedHorizon"`
	WindowsSealed   int   `json:"windowsSealed"`
	OpenWindow      int   `json:"openWindow"`
	OpenBursts      int   `json:"openBursts"`
	Epoch           int   `json:"epoch"`
	Incremental     bool  `json:"incremental"`
}

// SealedWindow is the durable form of one closed window: everything
// needed to rebuild its frame after a crash without re-clustering.
type SealedWindow struct {
	Index          int            `json:"index"`
	Meta           trace.Metadata `json:"meta"`
	Bursts         []trace.Burst  `json:"bursts,omitempty"`
	Labels         []int          `json:"labels,omitempty"`
	NumClusters    int            `json:"numClusters"`
	Quarantined    int            `json:"quarantined,omitempty"`
	QuarantinedBy  map[string]int `json:"quarantinedBy,omitempty"`
	Degraded       bool           `json:"degraded,omitempty"`
	DegradedReason string         `json:"degradedReason,omitempty"`
	AppendedTotal  int64          `json:"appendedTotal"`
}

// Session is a resident streaming analysis. It is not safe for
// concurrent use: the owner (trackd's stream registry, the CLI
// replayer) serialises appends.
type Session struct {
	cfg  Config
	ms   []metrics.Metric
	seq  *core.SeqTracker
	wb   *core.WindowBuilder
	cur  int // index of the open window
	curN int // bursts appended to the open window (all statuses)

	stats Stats
	last  *core.Result
	// live reports whether any burst was appended this process life
	// (restores must precede all appends).
	live bool
}

// pipelineMetrics resolves the metric space the pipeline will use.
func pipelineMetrics(cfg core.Config) []metrics.Metric {
	if len(cfg.Metrics) > 0 {
		return cfg.Metrics
	}
	return metrics.DefaultSpace()
}

// New opens a streaming session.
func New(cfg Config) (*Session, error) {
	if err := cfg.Window.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Pipeline.Validate(); err != nil {
		return nil, err
	}
	seq, err := core.NewSeqTracker(cfg.Pipeline)
	if err != nil {
		return nil, err
	}
	s := &Session{cfg: cfg, ms: pipelineMetrics(cfg.Pipeline), seq: seq}
	if err := s.openWindow(0); err != nil {
		return nil, err
	}
	s.stats.Incremental = s.wb.Incremental()
	return s, nil
}

// windowLabel names window k the way trace.SplitWindows does.
func (s *Session) windowLabel(k int) string {
	return fmt.Sprintf("%s/w%d", s.cfg.Meta.Label, k+1)
}

func (s *Session) openWindow(k int) error {
	meta := s.cfg.Meta
	meta.Label = s.windowLabel(k)
	wb, err := core.NewWindowBuilder(meta, s.cfg.Pipeline)
	if err != nil {
		return err
	}
	s.wb, s.cur, s.curN = wb, k, 0
	return nil
}

// Windows returns the number of sealed windows.
func (s *Session) Windows() int { return s.seq.Len() }

// Last returns the most recent successful evaluation (nil before the
// first trackable window).
func (s *Session) Last() *core.Result { return s.last }

// Stats snapshots the session counters.
func (s *Session) Stats() Stats {
	st := s.stats
	st.OpenWindow = s.cur
	st.OpenBursts = s.wb.Len()
	st.Epoch = s.seq.Epoch()
	return st
}

// Config returns the session's configuration.
func (s *Session) Config() Config { return s.cfg }

// Metrics returns the metric space the pipeline evaluates in.
func (s *Session) Metrics() []metrics.Metric { return s.ms }

// windowOf maps a start timestamp to its duration-window index.
func (s *Session) windowOf(startNS int64) int64 {
	return (startNS - s.cfg.Window.OriginNS) / s.cfg.Window.WindowNS
}

// Append routes one burst. Fatal errors (broken pipeline config,
// internal sequence corruption) abort; everything data-dependent is
// reported in the AppendResult and the rolling deltas.
func (s *Session) Append(ctx context.Context, b trace.Burst) (AppendResult, error) {
	var res AppendResult
	if s.cfg.Window.WindowNS > 0 {
		if b.StartNS < s.cfg.Window.OriginNS {
			s.stats.DroppedEarly++
			res.Status = DroppedEarly
			return res, nil
		}
		k := s.windowOf(b.StartNS)
		if k < int64(s.cur) {
			s.stats.DroppedLate++
			res.Status = DroppedLate
			return res, nil
		}
		if k >= int64(s.cfg.Window.maxWindows()) {
			s.stats.RejectedHorizon++
			res.Status = RejectedHorizon
			return res, nil
		}
		// Seal every window before the burst's own (possibly empty —
		// they become degraded frames, exactly like batch windows with
		// no bursts in their time range).
		for int64(s.cur) < k {
			d, err := s.sealCurrent(ctx)
			if err != nil {
				return res, err
			}
			res.Sealed = append(res.Sealed, d)
		}
	}
	s.live = true
	s.stats.Appended++
	s.curN++
	st, fault := s.wb.Accept(b)
	res.Fault = fault
	switch st {
	case core.BurstAccepted:
		s.stats.Accepted++
		res.Status = Accepted
	case core.BurstQuarantined:
		s.stats.Quarantined++
		res.Status = Quarantined
	case core.BurstFiltered:
		s.stats.Filtered++
		res.Status = Filtered
	}
	if n := s.cfg.Window.CountN; n > 0 && s.curN >= n {
		d, err := s.sealCurrent(ctx)
		if err != nil {
			return res, err
		}
		res.Sealed = append(res.Sealed, d)
	}
	return res, nil
}

// sealCurrent closes the open window into a frame, appends it to the
// sequence, re-evaluates, and opens the next window.
func (s *Session) sealCurrent(ctx context.Context) (*Delta, error) {
	appendedAt := s.stats.Appended
	f, err := s.wb.Seal(s.cur)
	if err != nil {
		return nil, err
	}
	incremental := s.wb.Incremental()
	// The durable record captures the frame's intrinsic state, BEFORE
	// the evaluation re-derives collapse markings over the sequence: a
	// restore must replay the same inputs the live session appended.
	sealed := &SealedWindow{
		Index:          f.Index,
		Meta:           f.Trace.Meta,
		Bursts:         f.Trace.Bursts,
		Labels:         f.Labels,
		NumClusters:    f.NumClusters,
		Quarantined:    f.Quarantined,
		QuarantinedBy:  f.QuarantinedBy,
		Degraded:       f.Degraded,
		DegradedReason: f.DegradedReason,
		AppendedTotal:  appendedAt,
	}
	if err := s.seq.Append(f); err != nil {
		return nil, err
	}
	s.stats.WindowsSealed++
	res, evalErr := s.seq.Evaluate(ctx)
	if evalErr == nil {
		s.last = res
	} else if ctx.Err() != nil {
		return nil, evalErr
	}
	d := buildDelta(f, res, evalErr, incremental, s.seq.Epoch(), s.ms)
	d.Sealed = sealed
	if err := s.openWindow(s.cur + 1); err != nil {
		return nil, err
	}
	return d, nil
}

// Finish seals the open window. With total > 0 it seals every window
// up to index total-1 (trailing empty windows become degraded frames,
// matching a batch split into exactly `total` windows); with total <= 0
// it seals just the open window, and only if bursts were appended to
// it.
func (s *Session) Finish(ctx context.Context, total int) ([]*Delta, error) {
	var out []*Delta
	if total <= 0 {
		if s.curN == 0 {
			return nil, nil
		}
		d, err := s.sealCurrent(ctx)
		if err != nil {
			return nil, err
		}
		return []*Delta{d}, nil
	}
	if total > s.cfg.Window.maxWindows() {
		total = s.cfg.Window.maxWindows()
	}
	for s.cur < total {
		d, err := s.sealCurrent(ctx)
		if err != nil {
			return out, err
		}
		out = append(out, d)
	}
	return out, nil
}

// Evaluate re-runs (or serves the cached) evaluation of the sealed
// sequence, without closing the open window.
func (s *Session) Evaluate(ctx context.Context) (*core.Result, error) {
	return s.seq.Evaluate(ctx)
}

// Restore replays one sealed window from its durable record, in index
// order, before any Append. The frame is rebuilt from the persisted
// labels — no re-clustering — and the evaluation caches warm up
// exactly as if the window had just sealed.
func (s *Session) Restore(w SealedWindow) error {
	if s.live {
		return fmt.Errorf("stream: Restore after Append")
	}
	if w.Index != s.seq.Len() {
		return fmt.Errorf("stream: restore window %d, want %d", w.Index, s.seq.Len())
	}
	if len(w.Labels) != len(w.Bursts) {
		return fmt.Errorf("stream: window %d: %d labels for %d bursts", w.Index, len(w.Labels), len(w.Bursts))
	}
	f := &core.Frame{
		Index:          w.Index,
		Label:          w.Meta.Label,
		Ranks:          w.Meta.Ranks,
		Trace:          &trace.Trace{Meta: w.Meta, Bursts: w.Bursts},
		Labels:         w.Labels,
		NumClusters:    w.NumClusters,
		Quarantined:    w.Quarantined,
		QuarantinedBy:  w.QuarantinedBy,
		Degraded:       w.Degraded,
		DegradedReason: w.DegradedReason,
	}
	if len(w.Bursts) > 0 {
		dims := len(s.ms)
		flat := make([]float64, len(w.Bursts)*dims)
		f.Points = make([][]float64, len(w.Bursts))
		for i, b := range w.Bursts {
			row := flat[i*dims : (i+1)*dims : (i+1)*dims]
			f.Points[i] = metrics.SpaceInto(row, s.ms, b.Sample())
		}
	}
	if err := s.seq.Append(f); err != nil {
		return err
	}
	s.stats.WindowsSealed++
	s.stats.Appended = w.AppendedTotal
	return s.openWindow(w.Index + 1)
}
