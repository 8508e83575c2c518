// Package apps is the catalog of synthetic application models standing in
// for the ten case studies of the paper's Table 2: Gadget, Quantum
// ESPRESSO, WRF, Gromacs (two studies), CGPOP, NAS BT, HydroC, MR-Genesis
// and NAS FT. Each model encodes the published structural facts of its
// real counterpart — phase structure, imbalance, bimodality, working-set
// scaling, compiler/architecture sensitivity — so the clustering and
// tracking pipeline exercises the same code paths it would on real traces
// and reproduces the paper's qualitative results.
package apps

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/mpisim"
	"perftrack/internal/trace"
)

// M is one million, the natural unit for per-burst instruction counts.
const M = 1e6

// KB and MB are working-set size units.
const (
	KB = 1024.0
	MB = 1024.0 * KB
)

// Study describes one multi-experiment analysis: the runs (or the single
// run plus time windows) whose traces become the frame sequence, the
// tracking configuration, and the expectations from the paper used by the
// reproduction harness.
type Study struct {
	// Name matches the paper's Table 2 row (plus a disambiguating suffix
	// for the two Gromacs studies).
	Name string
	// Description is a one-line summary of what the study varies.
	Description string
	// Runs are the experiments, in frame order.
	Runs []mpisim.Run
	// Windows, when > 1, means the study analyses the evolution within a
	// single experiment: Runs must hold exactly one run, whose trace is
	// split into this many time windows, each becoming a frame.
	Windows int
	// Track is the tracking configuration tuned for this study.
	Track core.Config
	// ParamName and ParamValues describe the per-frame explanatory
	// variable of the study (rank count, problem class, block size, ...).
	ParamName   string
	ParamValues []float64
	// ExpectedImages, ExpectedRegions and ExpectedCoverage are the
	// corresponding Table 2 cells.
	ExpectedImages   int
	ExpectedRegions  int
	ExpectedCoverage float64
	// PhaseNominal maps simulator phase ids to the nominal whole-run
	// invocation counts used to scale per-burst durations up to the
	// region durations the paper reports (see EXPERIMENTS.md).
	PhaseNominal map[int]int
}

// Simulate produces the study's trace sequence: one trace per run or,
// when Windows > 1, one trace per time window of its single run (the
// paper's "evolution along time intervals within the same experiment"
// mode). ctx is checked between runs.
func (st Study) Simulate(ctx context.Context) ([]*trace.Trace, error) {
	traces, err := mpisim.SimulateSeriesContext(ctx, st.Runs)
	if err != nil {
		return nil, err
	}
	traces, err = trace.Windows(traces, st.Windows)
	if err != nil {
		return nil, fmt.Errorf("apps: study %s: %w", st.Name, err)
	}
	return traces, nil
}

// Run simulates the study and tracks its frames with the study's
// configuration.
func (st Study) Run(ctx context.Context) (*core.Result, error) {
	traces, err := st.Simulate(ctx)
	if err != nil {
		return nil, err
	}
	return core.Analyze(ctx, traces, 0, st.Track)
}

// All returns the ten studies in the order of the paper's Table 2.
func All() []Study {
	return []Study{
		Gadget(),
		QuantumESPRESSO(),
		WRF(),
		GromacsVersions(),
		CGPOP(),
		NASBT(),
		HydroC(),
		MRGenesis(),
		NASFT(),
		GromacsEvolution(),
	}
}

// ByName resolves a study by its Table 2 name. The default synthetic
// robustness study is addressable as "Synthetic", which is what service
// smoke tests and benchmarks submit when they need a fast, fully known
// workload outside the paper's catalog.
func ByName(name string) (Study, error) {
	if name == "Synthetic" {
		return Synthetic(SyntheticParams{}), nil
	}
	for _, s := range All() {
		if s.Name == name {
			return s, nil
		}
	}
	return Study{}, fmt.Errorf("apps: unknown study %q", name)
}

// Names lists the catalog in Table 2 order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// defaultTrack is the tracking configuration shared by the studies: a
// fixed DBSCAN radius in the per-frame normalised space (the synthetic
// frames are well conditioned, so the k-dist heuristic is unnecessary) and
// a small cluster-weight cut to drop stragglers.
func defaultTrack() core.Config {
	return core.Config{
		Cluster: cluster.Config{
			Eps:              0.07,
			MinPts:           5,
			MinClusterWeight: 0.002,
		},
	}
}

// stackRef builds a call-stack reference.
func stackRef(fn, file string, line int) trace.CallstackRef {
	return trace.CallstackRef{Function: fn, File: file, Line: line}
}

// constInstr returns a scenario-independent per-rank instruction count.
func constInstr(n float64) func(mpisim.Scenario) float64 {
	return func(mpisim.Scenario) float64 { return n }
}

// strongScaled returns a per-rank instruction count for strong scaling: a
// fixed total divided by the rank count.
func strongScaled(total float64) func(mpisim.Scenario) float64 {
	return func(s mpisim.Scenario) float64 { return total / float64(s.Ranks) }
}

// problemScaled returns per-rank instructions proportional to the problem
// scale.
func problemScaled(base float64) func(mpisim.Scenario) float64 {
	return func(s mpisim.Scenario) float64 { return base * s.ProblemScale }
}

// constWS returns a scenario-independent working set.
func constWS(bytes float64) func(mpisim.Scenario) float64 {
	return func(mpisim.Scenario) float64 { return bytes }
}

// problemWS returns a working set proportional to the problem scale.
func problemWS(base float64) func(mpisim.Scenario) float64 {
	return func(s mpisim.Scenario) float64 { return base * s.ProblemScale }
}

// rankBimodal returns a Vary hook that splits the ranks into two
// performance modes: ranks whose index satisfies rank%den < num run at
// ipcA, the rest at ipcB. Splitting across ranks (rather than time) is
// what makes the two resulting clusters simultaneous, so the SPMD
// evaluator groups them as one code region.
func rankBimodal(num, den int, ipcA, ipcB float64) func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
	return func(_ mpisim.Scenario, rank, _ int, _ *rand.Rand) mpisim.Variation {
		if rank%den < num {
			return mpisim.Variation{IPCMul: ipcA}
		}
		return mpisim.Variation{IPCMul: ipcB}
	}
}

// iterBimodal returns a Vary hook alternating two modes across iterations
// (bimodality distributed in time, not across ranks — the two clusters
// are never simultaneous, so tracking keeps them apart; this is how
// HydroC's "single computing phase with bimodal behaviour" stays two
// tracked regions).
func iterBimodal(ipcEven, ipcOdd float64) func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
	return func(_ mpisim.Scenario, _, iter int, _ *rand.Rand) mpisim.Variation {
		if iter%2 == 0 {
			return mpisim.Variation{IPCMul: ipcEven}
		}
		// The odd mode is a genuinely distinct behaviour: tag it so the
		// ground-truth annotation distinguishes the two regions.
		return mpisim.Variation{IPCMul: ipcOdd, PhaseTag: 1}
	}
}

// rankLinearImbalance returns a Vary hook spreading the instruction count
// linearly across ranks in [1-spread, 1+spread] — the paper's "clusters
// that stretch vertically denote instructions imbalance".
func rankLinearImbalance(spread float64) func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
	return func(s mpisim.Scenario, rank, _ int, _ *rand.Rand) mpisim.Variation {
		if s.Ranks <= 1 {
			return mpisim.Variation{}
		}
		frac := float64(rank)/float64(s.Ranks-1) - 0.5
		return mpisim.Variation{InstrMul: 1 + 2*spread*frac}
	}
}

// combineVary chains Vary hooks, multiplying their factor effects. Later
// hooks win for Stack and Skip.
func combineVary(hooks ...func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation) func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
	return func(s mpisim.Scenario, rank, iter int, rng *rand.Rand) mpisim.Variation {
		out := mpisim.Variation{InstrMul: 1, IPCMul: 1, WSMul: 1}
		for _, h := range hooks {
			if h == nil {
				continue
			}
			v := h(s, rank, iter, rng)
			out.InstrMul *= nonZeroF(v.InstrMul)
			out.IPCMul *= nonZeroF(v.IPCMul)
			out.WSMul *= nonZeroF(v.WSMul)
			if v.Stack != nil {
				out.Stack = v.Stack
			}
			if v.Skip {
				out.Skip = true
			}
		}
		return out
	}
}

func nonZeroF(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// ipcNoise returns a Vary hook adding extra multiplicative IPC jitter.
func ipcNoise(sigma float64) func(mpisim.Scenario, int, int, *rand.Rand) mpisim.Variation {
	return func(_ mpisim.Scenario, _, _ int, rng *rand.Rand) mpisim.Variation {
		return mpisim.Variation{IPCMul: math.Exp(rng.NormFloat64() * sigma)}
	}
}
