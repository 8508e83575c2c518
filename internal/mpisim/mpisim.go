// Package mpisim simulates SPMD/MPI applications at the CPU-burst level.
//
// It is the substrate that replaces the paper's real workloads (WRF, CGPOP,
// NAS BT/FT, HydroC, MR-Genesis, Gromacs, Gadget, Quantum ESPRESSO) traced
// on real supercomputers. An application is a named sequence of phases
// executed every iteration by every rank, separated by synchronising
// communication — exactly the structure the paper's SPMD-simultaneity and
// execution-sequence evaluators rely on. Each phase declares its workload
// (instructions, memory intensity, working set) as a function of the
// execution scenario, plus optional per-rank/per-iteration variation hooks
// that model imbalance, bimodality, drift and code replication. The machine
// model (package machine) converts workloads into hardware counters and
// elapsed time, and the simulator assembles the result into a trace.
package mpisim

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"

	"perftrack/internal/machine"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// Scenario fixes every knob of one experiment: it is the paper's "unique
// execution scenario, which directly influences the application behaviour".
type Scenario struct {
	// Label names the experiment within a study ("128-tasks", "Class B").
	Label string
	// Ranks is the number of MPI processes.
	Ranks int
	// TasksPerNode caps processes per node; 0 packs nodes to capacity.
	TasksPerNode int
	// Arch and Compiler select the platform model.
	Arch     machine.Arch
	Compiler machine.Compiler
	// Iterations is the number of main-loop iterations to simulate.
	Iterations int
	// ProblemScale multiplies the problem size relative to the app's
	// reference input (NAS classes, mesh refinement, ...).
	ProblemScale float64
	// BlockSize is the spatial blocking factor for apps that use one
	// (HydroC); 0 when not applicable.
	BlockSize int
	// Seed drives all stochastic variation deterministically.
	Seed uint64
}

// normalised returns a copy with defaults substituted.
func (s Scenario) normalised() Scenario {
	if s.Iterations <= 0 {
		s.Iterations = 10
	}
	if s.ProblemScale <= 0 {
		s.ProblemScale = 1
	}
	if s.TasksPerNode <= 0 || s.TasksPerNode > s.Arch.CoresPerNode() {
		s.TasksPerNode = s.Arch.CoresPerNode()
	}
	return s
}

// Validate reports a descriptive error for unusable scenarios.
func (s Scenario) Validate() error {
	if s.Ranks <= 0 {
		return fmt.Errorf("mpisim: scenario %q: ranks must be positive", s.Label)
	}
	if err := s.Arch.Validate(); err != nil {
		return fmt.Errorf("mpisim: scenario %q: %w", s.Label, err)
	}
	if err := s.Compiler.Validate(); err != nil {
		return fmt.Errorf("mpisim: scenario %q: %w", s.Label, err)
	}
	return nil
}

// Variation is what a phase's Vary hook may change for one particular
// (rank, iteration) instance. Zero-valued fields mean "no change".
type Variation struct {
	// InstrMul multiplies the phase instruction count (imbalance,
	// replication). 0 means 1.
	InstrMul float64
	// IPCMul multiplies the phase's intrinsic IPC factor. 0 means 1.
	IPCMul float64
	// WSMul multiplies the working set. 0 means 1.
	WSMul float64
	// MemFracMul multiplies the phase's memory-access fraction (capped at
	// 1). 0 means 1.
	MemFracMul float64
	// Stack overrides the call-stack reference (distinct code path taken).
	Stack *trace.CallstackRef
	// Skip drops the burst entirely (conditional phase not executed).
	Skip bool
	// PhaseTag refines the ground-truth annotation: the burst records
	// phase index + 100*PhaseTag. Use it for variations that constitute a
	// genuinely distinct behaviour the tracker is expected to keep as its
	// own region (e.g. time-alternating modes); leave it zero for
	// variations of one behaviour (imbalance, rank-distributed modes the
	// SPMD evaluator should group).
	PhaseTag int
}

func (v Variation) instrMul() float64 {
	if v.InstrMul == 0 {
		return 1
	}
	return v.InstrMul
}

func (v Variation) ipcMul() float64 {
	if v.IPCMul == 0 {
		return 1
	}
	return v.IPCMul
}

func (v Variation) wsMul() float64 {
	if v.WSMul == 0 {
		return 1
	}
	return v.WSMul
}

func (v Variation) memFracMul() float64 {
	if v.MemFracMul == 0 {
		return 1
	}
	return v.MemFracMul
}

// PhaseSpec describes one computing phase of the application's main loop.
type PhaseSpec struct {
	// Name labels the phase for diagnostics.
	Name string
	// Stack is the call-stack reference of the code region (the paper's
	// callstack evaluator matches through these).
	Stack trace.CallstackRef
	// Instr returns the per-rank instruction count for the scenario.
	Instr func(s Scenario) float64
	// MemFrac is the fraction of instructions accessing memory.
	MemFrac float64
	// WorkingSet returns the per-rank data footprint in bytes. nil means a
	// small (L1-resident) footprint.
	WorkingSet func(s Scenario) float64
	// IPCFactor scales architectural base IPC for this region's code
	// quality. 0 means 1.
	IPCFactor float64
	// MLP is the phase's miss-level parallelism (see machine.Workload).
	MLP float64
	// L1Floor/L1Ceil/L2Floor/L2Ceil override the machine model's default
	// miss-rate bounds for this phase's access profile.
	L1Floor, L1Ceil float64
	L2Floor, L2Ceil float64
	// Vary customises individual instances (imbalance, bimodality, drift).
	// It may be nil.
	Vary func(s Scenario, rank, iter int, rng *rand.Rand) Variation
	// NoiseInstr and NoiseIPC are relative Gaussian jitters applied to
	// every instance; negative disables, 0 selects the default (1%).
	NoiseInstr float64
	NoiseIPC   float64
	// CommNS is the synchronisation/communication gap after the phase in
	// nanoseconds; 0 selects a small default.
	CommNS float64
	// Repeat is the number of times the phase executes per iteration
	// (communication-heavy kernels often run several times per step).
	// 0 means once.
	Repeat int
}

func (p PhaseSpec) repeat() int {
	if p.Repeat <= 0 {
		return 1
	}
	return p.Repeat
}

func (p PhaseSpec) noiseInstr() float64 { return defaultNoise(p.NoiseInstr) }
func (p PhaseSpec) noiseIPC() float64   { return defaultNoise(p.NoiseIPC) }

func defaultNoise(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return 0.01
	default:
		return v
	}
}

// AppSpec is a complete synthetic application model.
type AppSpec struct {
	// Name is the application name recorded in trace metadata.
	Name string
	// Phases execute in order once per iteration on every rank.
	Phases []PhaseSpec
	// NominalInvocations scales per-burst durations up to whole-run
	// region durations in reports (the simulator runs far fewer
	// iterations than the real codes; see EXPERIMENTS.md). 0 means
	// "report simulated durations as-is".
	NominalInvocations int
}

// Validate reports the first structural problem in the spec.
func (a AppSpec) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("mpisim: app without name")
	}
	if len(a.Phases) == 0 {
		return fmt.Errorf("mpisim: app %s: no phases", a.Name)
	}
	for i, p := range a.Phases {
		if p.Instr == nil {
			return fmt.Errorf("mpisim: app %s: phase %d (%s): missing Instr model", a.Name, i, p.Name)
		}
		if p.MemFrac < 0 || p.MemFrac > 1 {
			return fmt.Errorf("mpisim: app %s: phase %d (%s): MemFrac outside [0,1]", a.Name, i, p.Name)
		}
	}
	return nil
}

// phaseRNG derives a deterministic generator for one burst instance so the
// simulation is independent of evaluation order.
func phaseRNG(seed uint64, phase, rank, iter int) *rand.Rand {
	h := seed
	for _, v := range [...]uint64{uint64(phase) + 1, uint64(rank) + 1, uint64(iter) + 1} {
		// SplitMix64 step; cheap and well distributed.
		h += v * 0x9E3779B97F4A7C15
		h ^= h >> 30
		h *= 0xBF58476D1CE4E5B9
		h ^= h >> 27
		h *= 0x94D049BB133111EB
		h ^= h >> 31
	}
	return rand.New(rand.NewPCG(seed, h))
}

// gaussMul returns a multiplicative jitter exp(N(0, sigma)) ≈ 1±sigma,
// always positive.
func gaussMul(rng *rand.Rand, sigma float64) float64 {
	if sigma <= 0 {
		return 1
	}
	return math.Exp(rng.NormFloat64() * sigma)
}

// Simulate runs the application under the scenario and returns its trace.
// Bursts of the same phase start simultaneously on every rank (barrier
// semantics after each phase), so the SPMD structure the paper's second
// evaluator exploits is present by construction; per-rank duration
// variation then skews subsequent phases exactly as real imbalance would.
func Simulate(app AppSpec, sc Scenario) (*trace.Trace, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	sc = sc.normalised()

	t := &trace.Trace{
		Meta: trace.Metadata{
			App:          app.Name,
			Label:        sc.Label,
			Ranks:        sc.Ranks,
			TasksPerNode: sc.TasksPerNode,
			Machine:      sc.Arch.Name,
			Compiler:     sc.Compiler.Name,
			Params: map[string]string{
				"problemScale": fmt.Sprintf("%g", sc.ProblemScale),
				"blockSize":    fmt.Sprintf("%d", sc.BlockSize),
				"iterations":   fmt.Sprintf("%d", sc.Iterations),
				"seed":         fmt.Sprintf("%d", sc.Seed),
			},
		},
	}

	// Node packing: rank r lives on node r/TasksPerNode; every node except
	// possibly the last holds TasksPerNode processes.
	procsOnNode := func(rank int) int {
		node := rank / sc.TasksPerNode
		first := node * sc.TasksPerNode
		last := first + sc.TasksPerNode
		if last > sc.Ranks {
			last = sc.Ranks
		}
		return last - first
	}

	clock := make([]float64, sc.Ranks) // per-rank time in ns
	for iter := 0; iter < sc.Iterations; iter++ {
		for pi, ph := range app.Phases {
			for rep := 0; rep < ph.repeat(); rep++ {
				simulatePhase(app, sc, t, clock, pi, iter*ph.repeat()+rep, procsOnNode)
			}
		}
	}
	t.SortByTaskTime()
	return t, nil
}

// simulatePhase executes one instance of phase pi on every rank, appending
// the bursts to t and advancing the per-rank clocks through the closing
// barrier.
func simulatePhase(app AppSpec, sc Scenario, t *trace.Trace, clock []float64, pi, iter int, procsOnNode func(int) int) {
	ph := app.Phases[pi]
	var maxEnd float64
	{
		for rank := 0; rank < sc.Ranks; rank++ {
			rng := phaseRNG(sc.Seed, pi, rank, iter)
			var v Variation
			if ph.Vary != nil {
				v = ph.Vary(sc, rank, iter, rng)
			}
			if v.Skip {
				if clock[rank] > maxEnd {
					maxEnd = clock[rank]
				}
				continue
			}
			w := machine.Workload{
				Instructions: ph.Instr(sc) * v.instrMul() * gaussMul(rng, ph.noiseInstr()),
				MemFrac:      min(1, ph.MemFrac*v.memFracMul()),
				IPCFactor:    nonZero(ph.IPCFactor) * v.ipcMul() * gaussMul(rng, ph.noiseIPC()),
				MLP:          ph.MLP,
				L1Floor:      ph.L1Floor,
				L1Ceil:       ph.L1Ceil,
				L2Floor:      ph.L2Floor,
				L2Ceil:       ph.L2Ceil,
			}
			if ph.WorkingSet != nil {
				w.WorkingSetBytes = ph.WorkingSet(sc) * v.wsMul()
			} else {
				w.WorkingSetBytes = 16 * 1024 // comfortably L1-resident
			}
			cost := machine.Execute(w, sc.Arch, sc.Compiler, machine.Sharing{ProcsPerNode: procsOnNode(rank)})

			stack := ph.Stack
			if v.Stack != nil {
				stack = *v.Stack
			}
			b := trace.Burst{
				Task:       rank,
				StartNS:    int64(clock[rank]),
				DurationNS: int64(cost.DurationNS),
				Stack:      stack,
				Phase:      pi + 1 + 100*v.PhaseTag,
			}
			b.Counters[metrics.CtrInstructions] = cost.Instructions
			b.Counters[metrics.CtrCycles] = cost.Cycles
			b.Counters[metrics.CtrL1DMisses] = cost.L1DMisses
			b.Counters[metrics.CtrL2DMisses] = cost.L2DMisses
			b.Counters[metrics.CtrTLBMisses] = cost.TLBMisses
			b.Counters[metrics.CtrMemAccesses] = cost.MemAccesses
			t.Bursts = append(t.Bursts, b)

			clock[rank] += cost.DurationNS
			if clock[rank] > maxEnd {
				maxEnd = clock[rank]
			}
		}
	}
	// Barrier + communication: everyone resumes together.
	comm := ph.CommNS
	if comm <= 0 {
		comm = 20_000 // 20 microseconds
	}
	for rank := range clock {
		clock[rank] = maxEnd + comm
	}
}

func nonZero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

// Run pairs an application with one scenario.
type Run struct {
	App      AppSpec
	Scenario Scenario
}

// SimulateSeriesContext simulates a list of runs in order, returning one
// trace per run. It fails fast on the first error and checks ctx between
// runs, so a cancelled or timed-out caller does not simulate experiments
// whose traces nobody will analyse.
func SimulateSeriesContext(ctx context.Context, runs []Run) ([]*trace.Trace, error) {
	out := make([]*trace.Trace, 0, len(runs))
	for i, r := range runs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := Simulate(r.App, r.Scenario)
		if err != nil {
			return nil, fmt.Errorf("mpisim: run %d (%s): %w", i, r.Scenario.Label, err)
		}
		out = append(out, t)
	}
	return out, nil
}
