// Package perftrack applies object-tracking techniques to parallel
// application performance analysis, reproducing the SC'13 paper "On the
// usefulness of object tracking techniques in performance analysis"
// (Llort, Servat, Giménez, Labarta — Barcelona Supercomputing Center).
//
// The library converts burst-level performance traces of multiple
// experiments into a sequence of "images" of the performance space,
// detects objects (behavioural clusters of CPU bursts) in each image with
// density-based clustering, and tracks how those objects move, split and
// merge across the sequence using four cooperating heuristics:
// displacements in the performance space, SPMD simultaneity, call-stack
// references and the execution sequence. The result is a set of tracked
// regions whose per-metric trends explain how each part of the code reacts
// to changes in the execution conditions.
//
// Quick start:
//
//	study, _ := perftrack.CatalogStudy("WRF")
//	res, _ := perftrack.RunStudy(study)
//	for _, trend := range res.TopTrends(perftrack.IPC, 0.03) {
//	    fmt.Println(trend.RegionID, trend.Means())
//	}
//
// The subpackages under internal/ hold the substrates: trace model and
// codec, SPMD application simulator, machine model, DBSCAN clustering,
// sequence alignment, the tracking core, plotting and reporting.
package perftrack

import (
	"context"
	"io"

	"perftrack/internal/apps"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/mpisim"
	"perftrack/internal/profile"
	"perftrack/internal/trace"
)

// Re-exported types: the stable public surface of the library.
type (
	// Trace is a burst-level performance trace of one experiment.
	Trace = trace.Trace
	// Burst is one sequential computing region of one task.
	Burst = trace.Burst
	// CallstackRef locates the source code a burst executes.
	CallstackRef = trace.CallstackRef
	// Metric is one axis of the performance space.
	Metric = metrics.Metric
	// Config parametrises the tracking pipeline.
	Config = core.Config
	// Frame is one clustered image of the performance space.
	Frame = core.Frame
	// Result is the outcome of tracking a frame sequence.
	Result = core.Result
	// TrackedRegion is a region followed along the whole sequence.
	TrackedRegion = core.TrackedRegion
	// RegionTrend is the evolution of one metric for one region.
	RegionTrend = core.RegionTrend
	// Relation is one correspondence between consecutive frames.
	Relation = core.Relation
	// Diagnostics accounts for what the degraded-mode pipeline dropped
	// or bridged over (quarantined bursts, skipped lines, degraded and
	// bridged frames).
	Diagnostics = core.Diagnostics
	// DecodeOptions selects strict or lenient trace decoding.
	DecodeOptions = trace.DecodeOptions
	// DecodeDiagnostics reports the lines a lenient decode quarantined.
	DecodeDiagnostics = trace.DecodeDiagnostics
	// Study is a catalog entry describing a multi-experiment analysis.
	Study = apps.Study
	// Scenario fixes the execution conditions of one simulated run.
	Scenario = mpisim.Scenario
	// AppSpec is a synthetic application model for the simulator.
	AppSpec = mpisim.AppSpec
)

// Standard metrics, re-exported for convenience.
var (
	IPC          = metrics.IPC
	Instructions = metrics.Instructions
	Cycles       = metrics.Cycles
	DurationMS   = metrics.DurationMS
	L1DMisses    = metrics.L1DMisses
	L2DMisses    = metrics.L2DMisses
	TLBMisses    = metrics.TLBMisses
)

// CatalogStudy returns one of the built-in case studies reproducing the
// paper's Table 2 (names: "Gadget", "QuantumESPRESSO", "WRF", "Gromacs",
// "CGPOP", "NAS BT", "HydroC", "MR-Genesis", "NAS FT",
// "Gromacs-evolution").
func CatalogStudy(name string) (Study, error) { return apps.ByName(name) }

// CatalogStudies returns every built-in case study in Table 2 order.
func CatalogStudies() []Study { return apps.All() }

// SimulateStudy produces the trace sequence of a study: one trace per run,
// or — for single-run studies with Windows > 0 — one trace per time window
// of the single run (the paper's "evolution along time intervals within
// the same experiment" mode).
func SimulateStudy(st Study) ([]*Trace, error) {
	return SimulateStudyContext(context.Background(), st)
}

// Track runs the full pipeline over a trace sequence: frame construction
// (filtering, metric evaluation, per-frame clustering), cross-experiment
// scale normalisation and tracking.
func Track(traces []*Trace, cfg Config) (*Result, error) {
	return TrackContext(context.Background(), traces, cfg)
}

// TrackContext is Track with cancellation: frame building, clustering and
// the tracker's evaluator stages poll ctx, so a cancelled or timed-out
// analysis stops burning CPU mid-pipeline. This is what lets a serving
// layer enforce per-job timeouts and cancel abandoned work.
func TrackContext(ctx context.Context, traces []*Trace, cfg Config) (*Result, error) {
	return core.Analyze(ctx, traces, 0, cfg)
}

// RunStudy simulates a catalog study and tracks its frames with the
// study's configuration.
func RunStudy(st Study) (*Result, error) {
	return RunStudyContext(context.Background(), st)
}

// RunStudyContext is RunStudy with cancellation threaded through the
// simulation and the whole tracking pipeline.
func RunStudyContext(ctx context.Context, st Study) (*Result, error) {
	return st.Run(ctx)
}

// SimulateStudyContext is SimulateStudy with cancellation between runs.
func SimulateStudyContext(ctx context.Context, st Study) ([]*Trace, error) {
	return st.Simulate(ctx)
}

// Simulate runs a synthetic application under a scenario — the entry
// point for building custom studies on the public API.
func Simulate(app AppSpec, sc Scenario) (*Trace, error) {
	return mpisim.Simulate(app, sc)
}

// Profile is the flat per-region summary a classic profiler would report
// — the baseline the paper compares its approach against.
type Profile = profile.Profile

// NewProfile aggregates a trace into the profile-based baseline view.
// Its MultimodalRows method exposes the regions whose averages hide
// distinct behaviours, which is what the tracking approach resolves.
func NewProfile(t *Trace) *Profile { return profile.New(t) }

// CompareProfiles subtracts two profiles region by region — the classic
// "performance algebra" multi-experiment comparison.
func CompareProfiles(a, b *Profile) []profile.Delta { return profile.Compare(a, b) }

// WriteResultJSON serialises a tracking result (with the mean trends of
// the given metrics) for external tooling.
func WriteResultJSON(w io.Writer, res *Result, ms []Metric) error {
	return res.WriteJSON(w, ms)
}

// ReadTraceFile decodes a trace file strictly, sniffing whether it holds
// the text or the binary columnar (colbin) format.
func ReadTraceFile(path string) (*Trace, error) {
	t, _, err := trace.ReadFile(path, trace.DecodeOptions{Strict: true})
	return t, err
}

// WriteTraceFile writes a trace file in the text format.
func WriteTraceFile(path string, t *Trace) error { return trace.WriteFile(path, t) }

// ReadTraceFileLenient decodes a trace file in either format tolerating
// malformed burst lines (or corrupt colbin blocks): instead of failing,
// each bad line is quarantined and reported in the returned diagnostics.
// Use it to salvage partially corrupt traces.
func ReadTraceFileLenient(path string) (*Trace, DecodeDiagnostics, error) {
	return trace.ReadFile(path, trace.DecodeOptions{Strict: false})
}

func DefaultMetrics() []Metric                { return metrics.DefaultSpace() }
func MetricByName(name string) (Metric, bool) { return metrics.ByName(name) }
