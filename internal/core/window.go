package core

import (
	"context"
	"fmt"
	"sort"

	"perftrack/internal/cluster"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// This file is the ingest half of the streaming split: a WindowBuilder
// accepts bursts one at a time, quarantining and filtering at arrival
// (the same classification buildFrame applies to a whole trace), and
// feeds an incremental cluster index when the configuration allows it.
// Sealing produces a Frame bit-exact with buildFrame over the same
// bursts laid out in the canonical window order.

// AcceptStatus classifies what happened to one appended burst.
type AcceptStatus int

const (
	// BurstAccepted: the burst is part of the window.
	BurstAccepted AcceptStatus = iota
	// BurstQuarantined: the burst was corrupt; the fault class is
	// recorded in the frame diagnostics.
	BurstQuarantined
	// BurstFiltered: the burst was dropped by the MinBurstDurationNS
	// filter (no diagnostic trail, matching the batch pipeline).
	BurstFiltered
)

// IncrementalEligible reports whether cfg can be served by the
// incremental cluster index. Data-driven eps/minPts estimation and the
// top-duration filter need the whole window at once; those
// configurations fall back to a seal-time batch clustering run.
func IncrementalEligible(cfg Config) bool {
	cfg = cfg.withDefaults()
	c := cfg.Cluster
	if c.Algorithm != "" && c.Algorithm != cluster.AlgoDBSCAN {
		return false
	}
	if c.Eps <= 0 || c.MinPts <= 0 {
		return false
	}
	if cfg.TopDurationFrac > 0 && cfg.TopDurationFrac < 1 {
		return false
	}
	return true
}

// WindowBuilder accumulates the bursts of one open window. It is not
// safe for concurrent use; the stream session serialises appends.
type WindowBuilder struct {
	cfg    Config
	meta   trace.Metadata
	bursts []trace.Burst

	quarantined map[string]int

	// inc is the resident incremental index, nil when the configuration
	// is not eligible (then Seal runs the batch clustering).
	inc      *cluster.Incremental
	rowBuf   []float64
	coordBuf []float64
}

// NewWindowBuilder opens a window for one experiment/window label. The
// metadata's Label becomes the sealed frame's label and Ranks drives
// task-range quarantine and scale normalisation, exactly as a batch
// trace's metadata would.
func NewWindowBuilder(meta trace.Metadata, cfg Config) (*WindowBuilder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	wb := &WindowBuilder{cfg: cfg, meta: meta}
	if IncrementalEligible(cfg) {
		inc, err := cluster.NewIncremental(len(cfg.Metrics), cfg.Cluster)
		if err != nil {
			return nil, fmt.Errorf("core: incremental index: %w", err)
		}
		wb.inc = inc
		wb.rowBuf = make([]float64, len(cfg.Metrics))
		wb.coordBuf = make([]float64, len(cfg.Metrics))
	}
	return wb, nil
}

// Incremental reports whether the window maintains cluster labels
// incrementally (vs. a seal-time batch run).
func (wb *WindowBuilder) Incremental() bool { return wb.inc != nil }

// Len returns the number of accepted bursts in the open window.
func (wb *WindowBuilder) Len() int { return len(wb.bursts) }

// Accept classifies and files one burst. Quarantine and the
// minimum-duration filter run at arrival so the resident index only
// ever sees bursts the batch pipeline would cluster.
func (wb *WindowBuilder) Accept(b trace.Burst) (AcceptStatus, string) {
	if fault := burstFault(b, wb.meta.Ranks); fault != "" {
		if wb.quarantined == nil {
			wb.quarantined = map[string]int{}
		}
		wb.quarantined[fault]++
		return BurstQuarantined, fault
	}
	if wb.cfg.MinBurstDurationNS > 0 && b.DurationNS < wb.cfg.MinBurstDurationNS {
		return BurstFiltered, ""
	}
	wb.bursts = append(wb.bursts, b)
	if wb.inc != nil {
		row := metrics.SpaceInto(wb.rowBuf, wb.cfg.Metrics, b.Sample())
		transformSpaceInto(wb.coordBuf, wb.cfg.Metrics, row, 1)
		wb.inc.Add(wb.coordBuf, float64(b.DurationNS))
	}
	return BurstAccepted, ""
}

// canonicalOrder returns the permutation that lays the accepted bursts
// out in the canonical window order: a stable sort by (Task, StartNS,
// Thread) over arrival order — the same ordering trace.SortByTaskTime
// produces. Ties across all three keys preserve arrival order; that
// tie-break is part of the streaming contract (the batch side of the
// differential gate builds its window traces the same way).
func (wb *WindowBuilder) canonicalOrder() []int {
	order := make([]int, len(wb.bursts))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		a, b := wb.bursts[order[i]], wb.bursts[order[j]]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.Thread < b.Thread
	})
	return order
}

// Seal closes the window into a Frame, bit-exact with buildFrame over
// the canonical window trace. index is the frame's position in the
// stream sequence. The builder must not be used after Seal.
func (wb *WindowBuilder) Seal(index int) (*Frame, error) {
	order := wb.canonicalOrder()
	ft := &trace.Trace{Meta: wb.meta, Bursts: make([]trace.Burst, 0, len(wb.bursts))}
	for _, oi := range order {
		ft.Bursts = append(ft.Bursts, wb.bursts[oi])
	}
	var seal func() (*cluster.Result, error)
	if wb.inc != nil {
		// The index holds points in arrival order; order maps canonical
		// position -> arrival position, which is exactly Seal's contract.
		seal = func() (*cluster.Result, error) { return wb.inc.Seal(order) }
	}
	return newFrame(context.Background(), index, ft, wb.quarantined, wb.cfg, seal)
}
