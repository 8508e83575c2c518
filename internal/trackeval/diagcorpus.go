package trackeval

import (
	"context"
	"fmt"
	"math/rand/v2"

	"perftrack/internal/core"
	"perftrack/internal/machine"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// streamDiagCorpus decorrelates the diagnosis corpus from the scenario
// corpus when both derive from one seed.
const streamDiagCorpus = 0x41a6d05e

// DiagScenario is one planted-cause diagnosis problem: a frame sequence
// whose hot region exhibits exactly one of the named causes, generated
// through internal/machine's analytic model so the counters are
// mechanistically consistent with the planted explanation.
type DiagScenario struct {
	Name    string
	Seed    uint64
	Planted Cause
	Traces  []*trace.Trace
	// AnomalousRank is the rank planted as an outlier (-1 when none).
	AnomalousRank int
}

// diagPhase is one code region of a diagnosis frame.
type diagPhase struct {
	id   int
	cost machine.Cost
	// extraIters adds per-rank repetitions of the burst (load imbalance).
	extraIters map[int]int
}

const (
	diagRanks = 8
	diagIters = 3
)

// buildDiagFrame lays the phases out with barrier semantics, one burst
// per (iteration, phase, rank), counters scaled by a ±1% size jitter and
// a ±0.5% cycle jitter so bursts are distinct but stay in place.
func buildDiagFrame(rng *rand.Rand, meta trace.Metadata, phases []diagPhase) *trace.Trace {
	t := &trace.Trace{Meta: meta}
	clock := make([]int64, diagRanks)
	emit := func(ph diagPhase, r int) {
		j1 := 1 + (rng.Float64()-0.5)*0.02
		j2 := 1 + (rng.Float64()-0.5)*0.01
		b := trace.Burst{
			Task:       r,
			StartNS:    clock[r],
			DurationNS: int64(ph.cost.DurationNS * j1 * j2),
			Phase:      ph.id,
			Stack: trace.CallstackRef{
				Function: fmt.Sprintf("diag_phase_%d", ph.id),
				File:     "diag.f90",
				Line:     100 * ph.id,
			},
		}
		b.Counters[metrics.CtrInstructions] = ph.cost.Instructions * j1
		b.Counters[metrics.CtrCycles] = ph.cost.Cycles * j1 * j2
		b.Counters[metrics.CtrL1DMisses] = ph.cost.L1DMisses * j1
		b.Counters[metrics.CtrL2DMisses] = ph.cost.L2DMisses * j1
		b.Counters[metrics.CtrTLBMisses] = ph.cost.TLBMisses * j1
		b.Counters[metrics.CtrMemAccesses] = ph.cost.MemAccesses * j1
		t.Bursts = append(t.Bursts, b)
		clock[r] += b.DurationNS
	}
	for it := 0; it < diagIters; it++ {
		for _, ph := range phases {
			var maxEnd int64
			for r := 0; r < diagRanks; r++ {
				emit(ph, r)
				for k := 0; k < ph.extraIters[r]; k++ {
					emit(ph, r)
				}
				if clock[r] > maxEnd {
					maxEnd = clock[r]
				}
			}
			for r := range clock {
				clock[r] = maxEnd + 1000
			}
		}
	}
	t.SortByTaskTime()
	return t
}

// background is the stable anchor region every diagnosis scenario
// carries alongside its hot region, so tracking is never trivial.
func background(arch machine.Arch, comp machine.Compiler, procs int) diagPhase {
	return diagPhase{id: 2, cost: machine.Execute(machine.Workload{
		Instructions:    4e7,
		MemFrac:         0.02,
		WorkingSetBytes: 16 * 1024,
	}, arch, comp, machine.Sharing{ProcsPerNode: procs})}
}

// DiagnosisCorpus derives the planted-cause scenarios for one seed:
// a compiler trade, a cache-capacity cliff, a bandwidth contention
// knee, a planted rank imbalance, and a steady control.
func DiagnosisCorpus(seed uint64) []DiagScenario {
	mn := machine.MareNostrum()
	mt := machine.MinoTauro()
	gf := machine.GFortran()
	xlf := machine.XLF()

	mk := func(name string, planted Cause, anomRank int, build func(rng *rand.Rand) []*trace.Trace) DiagScenario {
		rng := rand.New(rand.NewPCG(seed, streamDiagCorpus))
		return DiagScenario{
			Name:          fmt.Sprintf("%s@%04d", name, seed),
			Seed:          seed,
			Planted:       planted,
			AnomalousRank: anomRank,
			Traces:        build(rng),
		}
	}
	meta := func(label string, arch machine.Arch, comp machine.Compiler, tpn, fi int) trace.Metadata {
		return trace.Metadata{
			App:          "trackeval-diag",
			Label:        fmt.Sprintf("%s-f%02d", label, fi),
			Ranks:        diagRanks,
			TasksPerNode: tpn,
			Machine:      arch.Name,
			Compiler:     comp.Name,
		}
	}

	return []DiagScenario{
		// CGPOP shape: toolchain flips mid-sequence, instructions and IPC
		// drop together, elapsed time stays flat.
		mk("compiler", CauseCompilerEffect, -1, func(rng *rand.Rand) []*trace.Trace {
			var out []*trace.Trace
			for fi := 0; fi < 6; fi++ {
				comp := gf
				if fi >= 3 {
					comp = xlf
				}
				hot := diagPhase{id: 1, cost: machine.Execute(machine.Workload{
					Instructions:    5e6,
					MemFrac:         0.2,
					WorkingSetBytes: 16 * 1024,
					IPCFactor:       0.5,
				}, mn, comp, machine.Sharing{ProcsPerNode: 4})}
				out = append(out, buildDiagFrame(rng,
					meta("compiler", mn, comp, 4, fi),
					[]diagPhase{hot, background(mn, comp, 4)}))
			}
			return out
		}),

		// HydroC shape: the working set grows past L1 and the miss density
		// steps up while IPC steps down.
		mk("cachecliff", CauseCacheCliff, -1, func(rng *rand.Rand) []*trace.Trace {
			var out []*trace.Trace
			ws := []float64{8, 16, 24, 48, 96, 192}
			for fi := 0; fi < len(ws); fi++ {
				hot := diagPhase{id: 1, cost: machine.Execute(machine.Workload{
					Instructions:    5e6,
					MemFrac:         0.3,
					WorkingSetBytes: ws[fi] * 1024,
				}, mt, gf, machine.Sharing{ProcsPerNode: 1})}
				out = append(out, buildDiagFrame(rng,
					meta("cachecliff", mt, gf, 1, fi),
					[]diagPhase{hot, background(mt, gf, 1)}))
			}
			return out
		}),

		// MR-Genesis shape: same work per process, fuller and fuller nodes;
		// IPC decay accelerates as the memory channel saturates while the
		// miss density stays flat.
		mk("contention", CauseContentionKnee, -1, func(rng *rand.Rand) []*trace.Trace {
			var out []*trace.Trace
			packing := []int{1, 2, 4, 6, 8, 12}
			for fi, procs := range packing {
				hot := diagPhase{id: 1, cost: machine.Execute(machine.Workload{
					Instructions:    5e6,
					MemFrac:         0.15,
					WorkingSetBytes: 64 << 20,
					MLP:             8,
				}, mt, gf, machine.Sharing{ProcsPerNode: procs})}
				out = append(out, buildDiagFrame(rng,
					meta("contention", mt, gf, procs, fi),
					[]diagPhase{hot, background(mt, gf, procs)}))
			}
			return out
		}),

		// Planted skew: rank 0 runs ~1.7x the hot-phase work units of its
		// peers, at identical per-burst behaviour — invisible in the metric
		// space, obvious in the per-rank time share.
		mk("imbalance", CauseLoadImbalance, 0, func(rng *rand.Rand) []*trace.Trace {
			var out []*trace.Trace
			for fi := 0; fi < 6; fi++ {
				hot := diagPhase{
					id: 1,
					cost: machine.Execute(machine.Workload{
						Instructions:    5e6,
						MemFrac:         0.2,
						WorkingSetBytes: 16 * 1024,
					}, mn, gf, machine.Sharing{ProcsPerNode: 4}),
					extraIters: map[int]int{0: 2},
				}
				out = append(out, buildDiagFrame(rng,
					meta("imbalance", mn, gf, 4, fi),
					[]diagPhase{hot, background(mn, gf, 4)}))
			}
			return out
		}),

		// Control: nothing happens; the diagnosis must say so.
		mk("steady", CauseSteady, -1, func(rng *rand.Rand) []*trace.Trace {
			var out []*trace.Trace
			for fi := 0; fi < 6; fi++ {
				hot := diagPhase{id: 1, cost: machine.Execute(machine.Workload{
					Instructions:    5e6,
					MemFrac:         0.2,
					WorkingSetBytes: 16 * 1024,
				}, mn, gf, machine.Sharing{ProcsPerNode: 4})}
				out = append(out, buildDiagFrame(rng,
					meta("steady", mn, gf, 4, fi),
					[]diagPhase{hot, background(mn, gf, 4)}))
			}
			return out
		}),
	}
}

// DiagnosisScore records how the diagnosis pass did on one planted
// scenario.
type DiagnosisScore struct {
	Name           string  `json:"name"`
	Seed           uint64  `json:"seed"`
	Planted        string  `json:"planted"`
	Diagnosed      string  `json:"diagnosed"`
	Confidence     float64 `json:"confidence"`
	Hit            bool    `json:"hit"`
	AnomalousRanks []int   `json:"anomalousRanks,omitempty"`
	Evidence       string  `json:"evidence,omitempty"`
}

// EvaluateDiagnosisCorpus tracks every planted-cause scenario of one
// seed and scores the diagnosis pass against the planted causes. A
// scenario is a hit when some spanning region is diagnosed with the
// planted cause (for load imbalance, additionally flagging the planted
// rank); the steady control is a hit when no region raises any cause.
func EvaluateDiagnosisCorpus(seed uint64, cfg core.Config) ([]DiagnosisScore, error) {
	var out []DiagnosisScore
	for _, ds := range DiagnosisCorpus(seed) {
		res, err := core.Analyze(context.Background(), ds.Traces, 0, cfg)
		if err != nil {
			return nil, fmt.Errorf("diagnosis scenario %s: %w", ds.Name, err)
		}
		diags := Diagnose(res)

		score := DiagnosisScore{
			Name:      ds.Name,
			Seed:      ds.Seed,
			Planted:   string(ds.Planted),
			Diagnosed: string(CauseSteady),
		}
		for _, d := range diags {
			if d.Cause == CauseSteady {
				continue
			}
			// Record the first (dominant-region) non-steady finding, and
			// prefer the planted cause when several regions disagree.
			if score.Diagnosed == string(CauseSteady) || d.Cause == ds.Planted {
				score.Diagnosed = string(d.Cause)
				score.Confidence = d.Confidence
				score.Evidence = d.Evidence
				score.AnomalousRanks = d.AnomalousRanks
				if d.Cause == ds.Planted {
					break
				}
			}
		}
		switch ds.Planted {
		case CauseSteady:
			score.Hit = score.Diagnosed == string(CauseSteady)
		case CauseLoadImbalance:
			score.Hit = score.Diagnosed == string(ds.Planted) &&
				containsInt(score.AnomalousRanks, ds.AnomalousRank)
		default:
			score.Hit = score.Diagnosed == string(ds.Planted)
		}
		out = append(out, score)
	}
	return out, nil
}

func containsInt(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
