package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func sample(instr, cycles float64) Sample {
	var s Sample
	s.Counters[CtrInstructions] = instr
	s.Counters[CtrCycles] = cycles
	return s
}

func TestCounterString(t *testing.T) {
	cases := map[Counter]string{
		CtrInstructions: "PAPI_TOT_INS",
		CtrCycles:       "PAPI_TOT_CYC",
		CtrL1DMisses:    "PAPI_L1_DCM",
		CtrL2DMisses:    "PAPI_L2_DCM",
		CtrTLBMisses:    "PAPI_TLB_DM",
		CtrMemAccesses:  "PAPI_LST_INS",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Counter(%d).String() = %q, want %q", c, got, want)
		}
	}
}

func TestCounterStringOutOfRange(t *testing.T) {
	if got := Counter(99).String(); got != "PAPI_UNKNOWN_99" {
		t.Errorf("out-of-range counter = %q", got)
	}
	if got := Counter(-1).String(); got != "PAPI_UNKNOWN_-1" {
		t.Errorf("negative counter = %q", got)
	}
}

func TestCounterByName(t *testing.T) {
	for c := Counter(0); c < NumCounters; c++ {
		got, ok := CounterByName(c.String())
		if !ok || got != c {
			t.Errorf("CounterByName(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := CounterByName("PAPI_NOPE"); ok {
		t.Error("CounterByName accepted an unknown name")
	}
}

func TestCounterVectorAddScale(t *testing.T) {
	var a, b CounterVector
	a[CtrInstructions] = 10
	b[CtrInstructions] = 5
	b[CtrCycles] = 2
	a.Add(b)
	if a[CtrInstructions] != 15 || a[CtrCycles] != 2 {
		t.Errorf("Add result = %v", a)
	}
}

func TestIPC(t *testing.T) {
	if got := IPC.Eval(sample(100, 50)); got != 2 {
		t.Errorf("IPC = %v, want 2", got)
	}
	if got := IPC.Eval(sample(100, 0)); got != 0 {
		t.Errorf("IPC with zero cycles = %v, want 0", got)
	}
}

func TestInstructionsMetric(t *testing.T) {
	if got := Instructions.Eval(sample(12345, 1)); got != 12345 {
		t.Errorf("Instructions = %v", got)
	}
	if !Instructions.ScalesWithRanks {
		t.Error("Instructions must scale with ranks")
	}
	if IPC.ScalesWithRanks {
		t.Error("IPC must not scale with ranks")
	}
}

func TestDurationMS(t *testing.T) {
	s := Sample{DurationNS: 2_500_000}
	if got := DurationMS.Eval(s); got != 2.5 {
		t.Errorf("DurationMS = %v, want 2.5", got)
	}
}

func TestMissDensityMetrics(t *testing.T) {
	s := sample(2000, 1000)
	s.Counters[CtrL1DMisses] = 10
	s.Counters[CtrL2DMisses] = 4
	s.Counters[CtrTLBMisses] = 2
	if got := L1MissesPerKInstr.Eval(s); got != 5 {
		t.Errorf("L1MPKI = %v, want 5", got)
	}
	if got := L2MissesPerKInstr.Eval(s); got != 2 {
		t.Errorf("L2MPKI = %v, want 2", got)
	}
	if got := TLBMissesPerKInstr.Eval(s); got != 1 {
		t.Errorf("TLBMPKI = %v, want 1", got)
	}
}

func TestMissDensityZeroInstructions(t *testing.T) {
	var s Sample
	s.Counters[CtrL1DMisses] = 10
	if got := L1MissesPerKInstr.Eval(s); got != 0 {
		t.Errorf("L1MPKI with zero instructions = %v, want 0", got)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{
		"IPC", "Instructions", "Cycles", "DurationMS",
		"L1DMisses", "L2DMisses", "TLBMisses",
		"L1MPKI", "L2MPKI", "TLBMPKI",
	} {
		m, ok := ByName(name)
		if !ok {
			t.Errorf("ByName(%q) not found", name)
			continue
		}
		if m.Name != name {
			t.Errorf("ByName(%q).Name = %q", name, m.Name)
		}
		if !m.Valid() {
			t.Errorf("ByName(%q) returned invalid metric", name)
		}
	}
	if _, ok := ByName("Bogus"); ok {
		t.Error("ByName accepted an unknown metric")
	}
}

func TestMetricValid(t *testing.T) {
	if (Metric{}).Valid() {
		t.Error("zero metric must be invalid")
	}
	if (Metric{Name: "x"}).Valid() {
		t.Error("metric without Eval must be invalid")
	}
}

func TestDefaultSpace(t *testing.T) {
	sp := DefaultSpace()
	if len(sp) != 2 || sp[0].Name != "IPC" || sp[1].Name != "Instructions" {
		t.Errorf("DefaultSpace = %v", sp)
	}
}

func TestSpace(t *testing.T) {
	s := sample(100, 50)
	got := SpaceInto(make([]float64, 2), []Metric{IPC, Instructions}, s)
	if len(got) != 2 || got[0] != 2 || got[1] != 100 {
		t.Errorf("Space = %v", got)
	}
}

func TestRangeExtendContains(t *testing.T) {
	r := EmptyRange()
	if r.Min <= r.Max {
		t.Fatal("EmptyRange not empty")
	}
	r.Extend(3)
	r.Extend(-1)
	if r.Min != -1 || r.Max != 3 {
		t.Errorf("range after extend = %+v", r)
	}
	if !r.Contains(0) || r.Contains(4) || r.Contains(-2) {
		t.Error("Contains wrong")
	}
	if r.Width() != 4 {
		t.Errorf("Width = %v", r.Width())
	}
}

func TestRangeNormalize(t *testing.T) {
	r := Range{Min: 10, Max: 20}
	if got := r.Normalize(15); got != 0.5 {
		t.Errorf("Normalize(15) = %v", got)
	}
	if got := r.Normalize(10); got != 0 {
		t.Errorf("Normalize(min) = %v", got)
	}
	if got := r.Normalize(20); got != 1 {
		t.Errorf("Normalize(max) = %v", got)
	}
}

func TestRangeNormalizeDegenerate(t *testing.T) {
	r := Range{Min: 5, Max: 5}
	if got := r.Normalize(5); got != 0.5 {
		t.Errorf("degenerate Normalize = %v, want 0.5", got)
	}
}

func TestRangeRoundTripProperty(t *testing.T) {
	f := func(a, b, u float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		if hi-lo < 1e-9 || hi-lo > 1e12 {
			return true
		}
		r := Range{Min: lo, Max: hi}
		u = math.Abs(math.Mod(u, 1))
		v := r.Min + u*r.Width()
		back := r.Normalize(v)
		return math.Abs(back-u) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
