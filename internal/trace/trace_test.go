package trace

import (
	"reflect"
	"strings"
	"testing"

	"perftrack/internal/metrics"
)

func burst(task int, start, dur int64, fn string, line, phase int) Burst {
	return Burst{
		Task:       task,
		StartNS:    start,
		DurationNS: dur,
		Stack:      CallstackRef{Function: fn, File: fn + ".f90", Line: line},
		Phase:      phase,
	}
}

func sampleTrace() *Trace {
	t := &Trace{
		Meta: Metadata{
			App: "demo", Label: "run-1", Ranks: 2, TasksPerNode: 2,
			Machine: "TestBox", Compiler: "gfortran",
			Params: map[string]string{"class": "A"},
		},
	}
	t.Bursts = []Burst{
		burst(0, 0, 100, "a", 1, 1),
		burst(0, 150, 50, "b", 2, 2),
		burst(1, 0, 120, "a", 1, 1),
		burst(1, 150, 60, "b", 2, 2),
	}
	return t
}

func TestBurstEndNSAndSample(t *testing.T) {
	b := burst(0, 10, 5, "f", 1, 1)
	if b.EndNS() != 15 {
		t.Errorf("EndNS = %d", b.EndNS())
	}
	b.Counters[metrics.CtrInstructions] = 42
	s := b.Sample()
	if s.DurationNS != 5 || s.Counters[metrics.CtrInstructions] != 42 {
		t.Errorf("Sample = %+v", s)
	}
}

func TestCallstackRefString(t *testing.T) {
	r := CallstackRef{Function: "solve_x", File: "solver.f90", Line: 2472}
	if got := r.String(); got != "solve_x (solver.f90:2472)" {
		t.Errorf("String = %q", got)
	}
	if !(CallstackRef{}).IsZero() {
		t.Error("zero ref should be zero")
	}
	if (CallstackRef{}).String() != "<no-callstack>" {
		t.Error("zero ref string")
	}
	if r.IsZero() {
		t.Error("non-zero ref reported zero")
	}
}

func TestSortByTaskTime(t *testing.T) {
	tr := sampleTrace()
	// Shuffle deliberately.
	tr.Bursts[0], tr.Bursts[3] = tr.Bursts[3], tr.Bursts[0]
	tr.SortByTaskTime()
	prev := tr.Bursts[0]
	for _, b := range tr.Bursts[1:] {
		if b.Task < prev.Task || (b.Task == prev.Task && b.StartNS < prev.StartNS) {
			t.Fatalf("not sorted: %+v after %+v", b, prev)
		}
		prev = b
	}
}

func TestSortByTime(t *testing.T) {
	tr := sampleTrace()
	tr.SortByTime()
	prev := tr.Bursts[0]
	for _, b := range tr.Bursts[1:] {
		if b.StartNS < prev.StartNS {
			t.Fatalf("not time sorted")
		}
		prev = b
	}
}

func TestTotalDurationSpanTasks(t *testing.T) {
	tr := sampleTrace()
	if got := tr.TotalDuration(); got != 330 {
		t.Errorf("TotalDuration = %d", got)
	}
	start, end := tr.Span()
	if start != 0 || end != 210 {
		t.Errorf("Span = %d..%d", start, end)
	}
	if tr.Tasks() != 2 {
		t.Errorf("Tasks = %d", tr.Tasks())
	}
	empty := &Trace{}
	s, e := empty.Span()
	if s != 0 || e != 0 {
		t.Error("empty span should be 0,0")
	}
}

func TestClone(t *testing.T) {
	tr := sampleTrace()
	cl := tr.Clone()
	cl.Bursts[0].Task = 99
	cl.Meta.Params["class"] = "B"
	if tr.Bursts[0].Task == 99 {
		t.Error("Clone shares burst storage")
	}
	if tr.Meta.Params["class"] == "B" {
		t.Error("Clone shares params map")
	}
}

func TestFilterMinDuration(t *testing.T) {
	tr := sampleTrace()
	f := tr.FilterMinDuration(100)
	if len(f.Bursts) != 2 {
		t.Errorf("kept %d bursts, want 2", len(f.Bursts))
	}
	for _, b := range f.Bursts {
		if b.DurationNS < 100 {
			t.Errorf("kept a short burst: %+v", b)
		}
	}
}

func TestFilterTopDuration(t *testing.T) {
	tr := sampleTrace() // durations 100,50,120,60 — total 330
	f := tr.FilterTopDuration(0.5)
	// Longest bursts until >= 165ns: 120+100 = 220.
	if len(f.Bursts) != 2 {
		t.Errorf("kept %d bursts, want 2", len(f.Bursts))
	}
	if f.TotalDuration() < 165 {
		t.Errorf("kept time %d below budget", f.TotalDuration())
	}
	// frac >= 1 keeps everything.
	if got := tr.FilterTopDuration(1); len(got.Bursts) != 4 {
		t.Error("frac=1 should keep all")
	}
}

func TestTimeWindow(t *testing.T) {
	tr := sampleTrace()
	w := tr.TimeWindow(0, 100)
	if len(w.Bursts) != 2 {
		t.Errorf("window kept %d, want 2", len(w.Bursts))
	}
	for _, b := range w.Bursts {
		if b.StartNS >= 100 {
			t.Errorf("burst outside window: %+v", b)
		}
	}
}

func TestSplitWindows(t *testing.T) {
	tr := sampleTrace()
	ws := tr.SplitWindows(2)
	if len(ws) != 2 {
		t.Fatalf("windows = %d", len(ws))
	}
	total := 0
	for i, w := range ws {
		total += len(w.Bursts)
		want := "run-1/w" + string(rune('1'+i))
		if w.Meta.Label != want {
			t.Errorf("window %d label = %q, want %q", i, w.Meta.Label, want)
		}
	}
	if total != len(tr.Bursts) {
		t.Errorf("windows lost bursts: %d of %d", total, len(tr.Bursts))
	}
	// n <= 1 returns a single clone.
	if got := tr.SplitWindows(1); len(got) != 1 || len(got[0].Bursts) != 4 {
		t.Error("SplitWindows(1) should return the whole trace")
	}
	// Windows passes a sequence through for n <= 1, splits one trace for
	// n > 1, and refuses to split several.
	two := []*Trace{tr, tr}
	if got, err := Windows(two, 1); err != nil || len(got) != 2 || got[0] != tr {
		t.Errorf("Windows(two, 1) = %d traces, %v; want the two unchanged", len(got), err)
	}
	if got, err := Windows(two[:1], 2); err != nil || !reflect.DeepEqual(got, ws) {
		t.Errorf("Windows(one, 2) = %d traces, %v; want SplitWindows(2)", len(got), err)
	}
	if _, err := Windows(two, 2); err == nil || !strings.Contains(err.Error(), "exactly one trace, got 2") {
		t.Errorf("Windows(two, 2): err = %v, want the exactly-one-trace error", err)
	}
}

func TestPerTaskSequences(t *testing.T) {
	tr := sampleTrace()
	seqs := tr.PerTaskSequences()
	if len(seqs) != 2 {
		t.Fatalf("tasks = %d", len(seqs))
	}
	for task, seq := range seqs {
		prev := int64(-1)
		for _, bi := range seq {
			b := tr.Bursts[bi]
			if b.Task != task {
				t.Errorf("sequence of task %d contains burst of task %d", task, b.Task)
			}
			if b.StartNS < prev {
				t.Errorf("sequence of task %d out of order", task)
			}
			prev = b.StartNS
		}
	}
}

func TestStacks(t *testing.T) {
	tr := sampleTrace()
	st := tr.Stacks()
	if len(st) != 2 {
		t.Fatalf("distinct stacks = %d", len(st))
	}
	for ref, n := range st {
		if n != 2 {
			t.Errorf("stack %v count = %d, want 2", ref, n)
		}
	}
}

func TestValidate(t *testing.T) {
	ok := sampleTrace()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"negative duration", func(tr *Trace) { tr.Bursts[0].DurationNS = -1 }},
		{"negative start", func(tr *Trace) { tr.Bursts[0].StartNS = -1 }},
		{"negative task", func(tr *Trace) { tr.Bursts[0].Task = -1 }},
		{"task out of range", func(tr *Trace) { tr.Bursts[0].Task = 5 }},
	}
	for _, c := range cases {
		tr := sampleTrace()
		c.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", c.name)
		}
	}
}

func TestSummary(t *testing.T) {
	s := sampleTrace().Summary()
	if s == "" {
		t.Fatal("empty summary")
	}
	for _, want := range []string{"demo", "run-1", "4 bursts", "2 tasks"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary %q missing %q", s, want)
		}
	}
}
