// Package trace models burst-level performance traces: the substrate the
// paper obtains from Extrae/Paraver instrumentation of MPI applications.
//
// A CPU burst is the sequential computation between two calls to the
// parallel runtime (MPI). Each burst records which task (MPI rank) ran it,
// when and for how long, the call-stack reference of the code region it
// executes, and a hardware counter vector describing how it performed.
// Delimiting bursts only needs library interposition on the MPI API, so no
// source access or manual instrumentation is required — which is precisely
// why the paper tracks behaviour at this granularity.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"perftrack/internal/metrics"
)

// CallstackRef points to the source location where a burst's computation
// starts: the paper's third evaluator matches regions through these
// references (function, file, line).
type CallstackRef struct {
	Function string
	File     string
	Line     int
}

// String renders the reference like "solve_x (solver.f90:2472)".
func (c CallstackRef) String() string {
	if c.IsZero() {
		return "<no-callstack>"
	}
	return fmt.Sprintf("%s (%s:%d)", c.Function, c.File, c.Line)
}

// IsZero reports whether the reference carries no information.
func (c CallstackRef) IsZero() bool {
	return c.Function == "" && c.File == "" && c.Line == 0
}

// Burst is one sequential computing region of one task.
type Burst struct {
	// Task is the MPI rank that executed the burst.
	Task int
	// Thread is the thread within the task (0 for pure MPI codes).
	Thread int
	// StartNS is the burst start time in nanoseconds since the run began.
	StartNS int64
	// DurationNS is the burst elapsed time in nanoseconds.
	DurationNS int64
	// Stack references the code region the burst executes.
	Stack CallstackRef
	// Counters holds the hardware counters read over the burst.
	Counters metrics.CounterVector
	// Phase is the ground-truth phase identifier when the trace comes from
	// the simulator (-1 when unknown, e.g. parsed from a file without the
	// annotation). It is never consumed by the analysis pipeline; it exists
	// so tests can validate clustering and tracking decisions.
	Phase int
}

// EndNS returns the burst completion timestamp.
func (b Burst) EndNS() int64 { return b.StartNS + b.DurationNS }

// Sample converts the burst into the minimal form metrics evaluate on.
func (b Burst) Sample() metrics.Sample {
	return metrics.Sample{DurationNS: float64(b.DurationNS), Counters: b.Counters}
}

// Metadata describes the experiment a trace was captured from. The tracking
// pipeline uses Ranks for cross-experiment scale normalisation and Label
// for reporting; the remaining fields are descriptive.
type Metadata struct {
	// App is the application name (e.g. "WRF").
	App string
	// Label identifies the experiment within a study (e.g. "128-tasks").
	Label string
	// Ranks is the number of MPI processes of the run.
	Ranks int
	// TasksPerNode is the process-to-node packing (0 when unknown).
	TasksPerNode int
	// Machine names the platform (e.g. "MareNostrum").
	Machine string
	// Compiler names the toolchain (e.g. "gfortran-4.1.2 -O3").
	Compiler string
	// Params carries free-form scenario parameters (problem class, block
	// size, ...). Keys and values must not contain whitespace.
	Params map[string]string
}

// Trace is a full burst-level trace of one experiment.
type Trace struct {
	Meta   Metadata
	Bursts []Burst
}

// Clone returns a deep copy of the trace.
func (t *Trace) Clone() *Trace {
	out := &Trace{Meta: t.Meta}
	if t.Meta.Params != nil {
		out.Meta.Params = make(map[string]string, len(t.Meta.Params))
		for k, v := range t.Meta.Params {
			out.Meta.Params[k] = v
		}
	}
	out.Bursts = append([]Burst(nil), t.Bursts...)
	return out
}

// SortByTaskTime orders bursts by (Task, StartNS, Thread), the canonical
// order the codec emits and the per-task sequence extraction expects.
func (t *Trace) SortByTaskTime() {
	sort.SliceStable(t.Bursts, func(i, j int) bool {
		a, b := t.Bursts[i], t.Bursts[j]
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		return a.Thread < b.Thread
	})
}

// SortByTime orders bursts globally by (StartNS, Task, Thread).
func (t *Trace) SortByTime() {
	sort.SliceStable(t.Bursts, func(i, j int) bool {
		a, b := t.Bursts[i], t.Bursts[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Task != b.Task {
			return a.Task < b.Task
		}
		return a.Thread < b.Thread
	})
}

// TotalDuration returns the summed duration of all bursts in nanoseconds.
func (t *Trace) TotalDuration() int64 {
	var sum int64
	for _, b := range t.Bursts {
		sum += b.DurationNS
	}
	return sum
}

// Span returns the [min start, max end] interval covered by the trace.
func (t *Trace) Span() (startNS, endNS int64) {
	if len(t.Bursts) == 0 {
		return 0, 0
	}
	startNS = t.Bursts[0].StartNS
	endNS = t.Bursts[0].EndNS()
	for _, b := range t.Bursts[1:] {
		if b.StartNS < startNS {
			startNS = b.StartNS
		}
		if e := b.EndNS(); e > endNS {
			endNS = e
		}
	}
	return startNS, endNS
}

// Tasks returns the number of distinct tasks present in the trace. For
// well-formed traces this equals Meta.Ranks, but partial traces may contain
// fewer.
func (t *Trace) Tasks() int {
	seen := map[int]bool{}
	for _, b := range t.Bursts {
		seen[b.Task] = true
	}
	return len(seen)
}

// FilterMinDuration returns a shallow copy of the trace keeping only bursts
// of at least minNS nanoseconds. The paper's clustering step discards the
// fine-grain bursts that do not contribute meaningful time (they would both
// perturb the density estimate and bloat the frame).
func (t *Trace) FilterMinDuration(minNS int64) *Trace {
	out := &Trace{Meta: t.Meta}
	for _, b := range t.Bursts {
		if b.DurationNS >= minNS {
			out.Bursts = append(out.Bursts, b)
		}
	}
	return out
}

// FilterTopDuration returns a shallow copy keeping the smallest set of
// longest bursts that covers at least frac (0..1] of the total burst time.
// This mirrors the usual BSC practice of clustering only the bursts that
// explain most of the computation time.
func (t *Trace) FilterTopDuration(frac float64) *Trace {
	if frac >= 1 || len(t.Bursts) == 0 {
		return t.Clone()
	}
	idx := make([]int, len(t.Bursts))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool {
		return t.Bursts[idx[i]].DurationNS > t.Bursts[idx[j]].DurationNS
	})
	total := t.TotalDuration()
	budget := int64(frac * float64(total))
	keep := make([]bool, len(t.Bursts))
	var acc int64
	for _, i := range idx {
		if acc >= budget {
			break
		}
		keep[i] = true
		acc += t.Bursts[i].DurationNS
	}
	out := &Trace{Meta: t.Meta}
	for i, b := range t.Bursts {
		if keep[i] {
			out.Bursts = append(out.Bursts, b)
		}
	}
	return out
}

// TimeWindow returns the bursts whose start time falls in [fromNS, toNS).
// Frames built from successive windows of a single long trace implement the
// paper's "evolution along time intervals within the same experiment" mode.
func (t *Trace) TimeWindow(fromNS, toNS int64) *Trace {
	out := &Trace{Meta: t.Meta}
	for _, b := range t.Bursts {
		if b.StartNS >= fromNS && b.StartNS < toNS {
			out.Bursts = append(out.Bursts, b)
		}
	}
	return out
}

// SplitWindows partitions the trace into n equal-duration time windows.
// Window labels get a "/w<i>" suffix appended to the trace label. For
// n <= 1, or a trace with no time span, it returns one clone of the trace.
func (t *Trace) SplitWindows(n int) []*Trace {
	start, end := t.Span()
	if n <= 1 || end <= start {
		return []*Trace{t.Clone()}
	}
	width := (end - start + int64(n) - 1) / int64(n)
	out := make([]*Trace, n)
	for i := 0; i < n; i++ {
		w := t.TimeWindow(start+int64(i)*width, start+int64(i+1)*width)
		w.Meta.Label = fmt.Sprintf("%s/w%d", t.Meta.Label, i+1)
		out[i] = w
	}
	return out
}

// Windows returns the trace sequence an analysis of n windows runs over:
// the traces unchanged when n <= 1, else the n time windows of the one
// trace given (the paper's "evolution along time intervals within the
// same experiment" mode).
func Windows(traces []*Trace, n int) ([]*Trace, error) {
	if n <= 1 {
		return traces, nil
	}
	if len(traces) != 1 {
		return nil, fmt.Errorf("%d windows need exactly one trace, got %d", n, len(traces))
	}
	return traces[0].SplitWindows(n), nil
}

// PerTaskSequences returns, for each task present, the chronological list
// of indices into t.Bursts executed by that task. The map is keyed by task
// id; each sequence is ordered by start time.
func (t *Trace) PerTaskSequences() map[int][]int {
	seqs := map[int][]int{}
	for i, b := range t.Bursts {
		seqs[b.Task] = append(seqs[b.Task], i)
	}
	for task := range seqs {
		s := seqs[task]
		sort.SliceStable(s, func(i, j int) bool {
			return t.Bursts[s[i]].StartNS < t.Bursts[s[j]].StartNS
		})
	}
	return seqs
}

// Stacks returns the set of distinct call-stack references with the number
// of bursts pointing at each.
func (t *Trace) Stacks() map[CallstackRef]int {
	out := map[CallstackRef]int{}
	for _, b := range t.Bursts {
		out[b.Stack]++
	}
	return out
}

// Validate checks structural invariants: non-negative durations and
// timestamps, tasks within [0, Ranks) when Ranks is set. It returns a
// descriptive error for the first violation found.
func (t *Trace) Validate() error {
	for i, b := range t.Bursts {
		if b.DurationNS < 0 {
			return fmt.Errorf("trace %q: burst %d has negative duration %d", t.Meta.Label, i, b.DurationNS)
		}
		if b.StartNS < 0 {
			return fmt.Errorf("trace %q: burst %d has negative start %d", t.Meta.Label, i, b.StartNS)
		}
		if b.Task < 0 {
			return fmt.Errorf("trace %q: burst %d has negative task %d", t.Meta.Label, i, b.Task)
		}
		if t.Meta.Ranks > 0 && b.Task >= t.Meta.Ranks {
			return fmt.Errorf("trace %q: burst %d task %d out of range (ranks=%d)",
				t.Meta.Label, i, b.Task, t.Meta.Ranks)
		}
	}
	return nil
}

// Summary returns a one-line human-readable description of the trace.
func (t *Trace) Summary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s", t.Meta.App)
	if t.Meta.Label != "" {
		fmt.Fprintf(&sb, "[%s]", t.Meta.Label)
	}
	start, end := t.Span()
	fmt.Fprintf(&sb, ": %d bursts, %d tasks, span %.3f s, busy %.3f s",
		len(t.Bursts), t.Tasks(), float64(end-start)/1e9, float64(t.TotalDuration())/1e9)
	return sb.String()
}
