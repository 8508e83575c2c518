// Package metrics defines the performance-metric model used throughout
// perftrack: hardware counter vectors attached to CPU bursts, derived
// metrics (IPC, miss ratios, ...), and the scale transformations needed to
// compare metric values across experiments with different configurations.
//
// The tracking technique of the paper is metric-agnostic: any pair (or any
// number) of metrics can span the performance space in which code regions
// are clustered and tracked. This package provides the standard metrics the
// paper uses (Instructions Completed and IPC) plus the cache/TLB metrics of
// its case studies, and the hooks to define custom ones.
package metrics

import (
	"fmt"
	"math"
)

// Counter indexes one slot of a hardware counter vector. The set mirrors
// what the paper's case studies read through PAPI: instructions, cycles and
// the cache/TLB miss counters used in Figures 10-12.
type Counter int

const (
	// CtrInstructions is the number of completed instructions.
	CtrInstructions Counter = iota
	// CtrCycles is the number of core cycles the burst spent executing.
	CtrCycles
	// CtrL1DMisses is the number of L1 data cache misses.
	CtrL1DMisses
	// CtrL2DMisses is the number of L2 (last private level) data cache misses.
	CtrL2DMisses
	// CtrTLBMisses is the number of data TLB misses.
	CtrTLBMisses
	// CtrMemAccesses is the number of memory accesses (loads+stores).
	CtrMemAccesses

	// NumCounters is the size of a CounterVector.
	NumCounters
)

// counterNames maps Counter values to their canonical names, used by the
// trace codec and report generators.
var counterNames = [NumCounters]string{
	"PAPI_TOT_INS",
	"PAPI_TOT_CYC",
	"PAPI_L1_DCM",
	"PAPI_L2_DCM",
	"PAPI_TLB_DM",
	"PAPI_LST_INS",
}

// String returns the PAPI-style name of the counter.
func (c Counter) String() string {
	if c < 0 || c >= NumCounters {
		return fmt.Sprintf("PAPI_UNKNOWN_%d", int(c))
	}
	return counterNames[c]
}

// CounterByName resolves a PAPI-style counter name. It returns -1 and false
// when the name is not known.
func CounterByName(name string) (Counter, bool) {
	for i, n := range counterNames {
		if n == name {
			return Counter(i), true
		}
	}
	return -1, false
}

// CounterVector holds one value per hardware counter. Values are stored as
// float64 because simulated and extrapolated counts need not be integral.
type CounterVector [NumCounters]float64

// Add accumulates o into v.
func (v *CounterVector) Add(o CounterVector) {
	for i := range v {
		v[i] += o[i]
	}
}

// Sample is the minimal per-burst information a Metric can be computed
// from. It decouples this package from the trace model.
type Sample struct {
	// DurationNS is the burst elapsed time in nanoseconds.
	DurationNS float64
	// Counters is the hardware counter vector read over the burst.
	Counters CounterVector
}

// Metric is a named scalar derived from a burst sample. Metrics describe
// one axis of the performance space in which bursts are clustered and
// tracked.
type Metric struct {
	// Name identifies the metric in reports, plots and trace headers.
	Name string
	// ScalesWithRanks marks metrics whose magnitude is inversely
	// proportional to the number of processes (e.g. instructions per rank
	// under strong scaling). The cross-experiment normalisation weights
	// such metrics by the rank count so frames become comparable
	// (paper, Section 2).
	ScalesWithRanks bool
	// LogScale hints plots to use a logarithmic axis.
	LogScale bool
	// Eval computes the metric value for one burst sample.
	Eval func(s Sample) float64
}

// Valid reports whether the metric is usable.
func (m Metric) Valid() bool { return m.Name != "" && m.Eval != nil }

// ratio returns num/den guarding against division by zero.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Standard metrics.
var (
	// IPC is instructions per cycle, the paper's default X axis: "IPC
	// measures how fast the work is done".
	IPC = Metric{
		Name: "IPC",
		Eval: func(s Sample) float64 {
			return ratio(s.Counters[CtrInstructions], s.Counters[CtrCycles])
		},
	}

	// Instructions is the completed instruction count, the paper's default
	// Y axis: "trends in Instructions Completed indicate regions with
	// different workloads".
	Instructions = Metric{
		Name:            "Instructions",
		ScalesWithRanks: true,
		LogScale:        true,
		Eval: func(s Sample) float64 {
			return s.Counters[CtrInstructions]
		},
	}

	// Cycles is the elapsed cycle count of the burst.
	Cycles = Metric{
		Name:            "Cycles",
		ScalesWithRanks: true,
		LogScale:        true,
		Eval: func(s Sample) float64 {
			return s.Counters[CtrCycles]
		},
	}

	// DurationMS is the burst duration in milliseconds.
	DurationMS = Metric{
		Name:            "DurationMS",
		ScalesWithRanks: true,
		Eval: func(s Sample) float64 {
			return s.DurationNS / 1e6
		},
	}

	// L1DMisses is the raw L1 data cache miss count.
	L1DMisses = Metric{
		Name:            "L1DMisses",
		ScalesWithRanks: true,
		LogScale:        true,
		Eval: func(s Sample) float64 {
			return s.Counters[CtrL1DMisses]
		},
	}

	// L2DMisses is the raw L2 data cache miss count.
	L2DMisses = Metric{
		Name:            "L2DMisses",
		ScalesWithRanks: true,
		LogScale:        true,
		Eval: func(s Sample) float64 {
			return s.Counters[CtrL2DMisses]
		},
	}

	// TLBMisses is the raw data TLB miss count.
	TLBMisses = Metric{
		Name:            "TLBMisses",
		ScalesWithRanks: true,
		LogScale:        true,
		Eval: func(s Sample) float64 {
			return s.Counters[CtrTLBMisses]
		},
	}

	// L1MissesPerKInstr is L1 data misses per thousand instructions, a
	// density metric independent of the burst size.
	L1MissesPerKInstr = Metric{
		Name: "L1MPKI",
		Eval: func(s Sample) float64 {
			return 1000 * ratio(s.Counters[CtrL1DMisses], s.Counters[CtrInstructions])
		},
	}

	// L2MissesPerKInstr is L2 data misses per thousand instructions.
	L2MissesPerKInstr = Metric{
		Name: "L2MPKI",
		Eval: func(s Sample) float64 {
			return 1000 * ratio(s.Counters[CtrL2DMisses], s.Counters[CtrInstructions])
		},
	}

	// TLBMissesPerKInstr is TLB misses per thousand instructions.
	TLBMissesPerKInstr = Metric{
		Name: "TLBMPKI",
		Eval: func(s Sample) float64 {
			return 1000 * ratio(s.Counters[CtrTLBMisses], s.Counters[CtrInstructions])
		},
	}
)

// DefaultSpace is the two-dimensional performance space the paper uses for
// every figure: IPC on the X axis, Instructions Completed on the Y axis.
func DefaultSpace() []Metric { return []Metric{IPC, Instructions} }

// ByName resolves one of the standard metrics by name. Custom metrics must
// be passed around by value instead.
func ByName(name string) (Metric, bool) {
	for _, m := range []Metric{
		IPC, Instructions, Cycles, DurationMS,
		L1DMisses, L2DMisses, TLBMisses,
		L1MissesPerKInstr, L2MissesPerKInstr, TLBMissesPerKInstr,
	} {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// SpaceInto evaluates a list of metrics over one sample into dst
// (len(dst) must equal len(ms)), producing the burst's coordinates in the
// performance space. Writing into dst lets callers lay frames out as one
// flat allocation instead of a boxed slice per burst.
func SpaceInto(dst []float64, ms []Metric, s Sample) []float64 {
	for i, m := range ms {
		dst[i] = m.Eval(s)
	}
	return dst
}

// Range is a closed interval [Min, Max] on one metric axis.
type Range struct {
	Min, Max float64
}

// Width returns Max-Min.
func (r Range) Width() float64 { return r.Max - r.Min }

// Contains reports whether v lies in the interval.
func (r Range) Contains(v float64) bool { return v >= r.Min && v <= r.Max }

// Extend grows the range to include v.
func (r *Range) Extend(v float64) {
	if v < r.Min {
		r.Min = v
	}
	if v > r.Max {
		r.Max = v
	}
}

// EmptyRange returns a range that any Extend call will snap to.
func EmptyRange() Range {
	return Range{Min: math.Inf(1), Max: math.Inf(-1)}
}

// Normalize maps v into [0,1] over the range. Degenerate ranges map to 0.5
// so that identical values cluster together instead of exploding.
func (r Range) Normalize(v float64) float64 {
	w := r.Width()
	if w <= 0 {
		return 0.5
	}
	return (v - r.Min) / w
}
