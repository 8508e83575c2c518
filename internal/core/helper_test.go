package core

import (
	"context"

	"perftrack/internal/cluster"
	"perftrack/internal/metrics"
	"perftrack/internal/trace"
)

// phaseDef describes one synthetic phase for hand-built test traces. Each
// instance becomes one burst; IPC and Instr place it in the performance
// space, Stack links it to source code. PerRank optionally overrides
// (ipc, instr) for individual ranks — the hook used to fabricate bimodal
// and imbalanced regions.
type phaseDef struct {
	IPC     float64
	Instr   float64
	Stack   trace.CallstackRef
	PerRank func(rank int) (ipc, instr float64)
	// SkipRanks drops the phase on those ranks entirely.
	SkipRanks map[int]bool
}

func stackR(fn string, line int) trace.CallstackRef {
	return trace.CallstackRef{Function: fn, File: "test.f90", Line: line}
}

// mkTrace builds a fully deterministic SPMD trace: every iteration runs
// the phases in order, all ranks synchronising after each phase (barrier
// semantics, matching the simulator). The machine runs at 1 cycle/ns.
func mkTrace(label string, ranks, iters int, phases []phaseDef) *trace.Trace {
	t := &trace.Trace{Meta: trace.Metadata{App: "synthetic", Label: label, Ranks: ranks}}
	clock := make([]int64, ranks)
	for it := 0; it < iters; it++ {
		for pi, ph := range phases {
			var maxEnd int64
			for r := 0; r < ranks; r++ {
				if ph.SkipRanks[r] {
					if clock[r] > maxEnd {
						maxEnd = clock[r]
					}
					continue
				}
				ipc, instr := ph.IPC, ph.Instr
				if ph.PerRank != nil {
					ipc, instr = ph.PerRank(r)
				}
				cycles := instr / ipc
				b := trace.Burst{
					Task:       r,
					StartNS:    clock[r],
					DurationNS: int64(cycles),
					Stack:      ph.Stack,
					Phase:      pi + 1,
				}
				b.Counters[metrics.CtrInstructions] = instr
				b.Counters[metrics.CtrCycles] = cycles
				t.Bursts = append(t.Bursts, b)
				clock[r] += int64(cycles)
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

// testConfig returns a tracking configuration suited to the tight,
// noise-free synthetic traces.
func testConfig() Config {
	return Config{
		Cluster: cluster.Config{Eps: 0.07, MinPts: 3},
	}
}

// buildAndTrack is a convenience wrapper for end-to-end tests.
func buildAndTrack(cfg Config, traces ...*trace.Trace) (*Result, error) {
	return Analyze(context.Background(), traces, 0, cfg)
}

// RowArgmax returns the column with the highest value in row i and that
// value (0, 0 when the row is empty).
func (m *Matrix) RowArgmax(i int) (int, float64) {
	bestJ, bestV := 0, 0.0
	if i <= 0 || i >= len(m.P) {
		return 0, 0
	}
	for j := 1; j < len(m.P[i]); j++ {
		if m.P[i][j] > bestV {
			bestJ, bestV = j, m.P[i][j]
		}
	}
	return bestJ, bestV
}
