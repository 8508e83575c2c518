package report

import (
	"strings"
	"testing"

	"perftrack/internal/apps"
	"perftrack/internal/metrics"
)

func TestTableString(t *testing.T) {
	tb := &Table{
		Title:  "demo",
		Header: []string{"A", "Bee", "C"},
	}
	tb.AddRow("1", "2", "3")
	tb.AddRow("longer", "x")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), s)
	}
	// Columns align: "Bee" starts at the same offset in header and rows.
	hOff := strings.Index(lines[1], "Bee")
	rOff := strings.Index(lines[3], "2")
	if hOff != rOff {
		t.Errorf("columns misaligned: header %d vs row %d\n%s", hOff, rOff, s)
	}
}

func TestTableMarkdown(t *testing.T) {
	tb := &Table{Header: []string{"x", "y"}}
	tb.AddRow("1", "2")
	md := tb.Markdown()
	if !strings.Contains(md, "| x | y |") || !strings.Contains(md, "|---|---|") {
		t.Errorf("markdown = %q", md)
	}
	if !strings.Contains(md, "| 1 | 2 |") {
		t.Errorf("markdown row missing: %q", md)
	}
}

func TestTableShortRow(t *testing.T) {
	tb := &Table{Header: []string{"a", "b", "c"}}
	tb.AddRow("only")
	if len(tb.Rows[0]) != 3 {
		t.Errorf("short row not padded: %v", tb.Rows[0])
	}
}

func TestFormatters(t *testing.T) {
	if Pct(0.888) != "89%" {
		t.Errorf("Pct = %q", Pct(0.888))
	}
	if F(1.23456, 2) != "1.23" {
		t.Errorf("F = %q", F(1.23456, 2))
	}
	cases := map[float64]string{
		6.8e6:  "6.8M",
		4.3e9:  "4.3G",
		1200:   "1.2k",
		0.25:   "0.25",
		3.3e06: "3.3M",
	}
	for v, want := range cases {
		if got := SI(v); got != want {
			t.Errorf("SI(%v) = %q, want %q", v, got, want)
		}
	}
}

// miniStudy builds a small, fast catalog-like study for report tests.
func miniStudy(t *testing.T) *StudyResult {
	t.Helper()
	st, err := apps.ByName("CGPOP")
	if err != nil {
		t.Fatal(err)
	}
	// Shrink the run: fewer ranks and iterations keep the test quick
	// while preserving the structure.
	for i := range st.Runs {
		st.Runs[i].Scenario.Ranks = 32
		st.Runs[i].Scenario.Iterations = 3
	}
	sr, err := RunStudy(st)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

func TestRunStudyAndSummary(t *testing.T) {
	sr := miniStudy(t)
	if len(sr.Result.Frames) != 4 {
		t.Fatalf("frames = %d", len(sr.Result.Frames))
	}
	s := sr.Summary()
	if !strings.Contains(s, "CGPOP") || !strings.Contains(s, "4 input images") {
		t.Errorf("summary = %q", s)
	}
	labels := sr.FrameLabels()
	if len(labels) != 4 || labels[0] != "MareNostrum/gfortran" {
		t.Errorf("labels = %v", labels)
	}
}

func TestTable2(t *testing.T) {
	sr := miniStudy(t)
	tb := Table2([]*StudyResult{sr})
	s := tb.String()
	if !strings.Contains(s, "CGPOP") || !strings.Contains(s, "(average)") {
		t.Errorf("table 2:\n%s", s)
	}
	if len(tb.Rows) != 2 {
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestTable3(t *testing.T) {
	sr := miniStudy(t)
	s := Table3(sr).String()
	for _, want := range []string{"Region 1", "IPC", "Instructions", "Duration", "MinoTauro/ifort"} {
		if !strings.Contains(s, want) {
			t.Errorf("table 3 missing %q:\n%s", want, s)
		}
	}
}

func TestTable1(t *testing.T) {
	sr := miniStudy(t)
	s := Table1(sr, 0).String()
	if !strings.Contains(s, "solvers.F90") {
		t.Errorf("table 1 missing source file:\n%s", s)
	}
	if !strings.Contains(s, "Region") {
		t.Errorf("table 1 missing regions:\n%s", s)
	}
	// Out-of-range pair index falls back to pair 0.
	if got := Table1(sr, 99).String(); got != s {
		t.Error("pair fallback changed output")
	}
}

func TestDisplacementAndSequenceText(t *testing.T) {
	sr := miniStudy(t)
	d := DisplacementText(sr, 0)
	if !strings.Contains(d, "displacement") || !strings.Contains(d, "%") {
		t.Errorf("displacement text:\n%s", d)
	}
	q := SequenceText(sr, 0)
	if !strings.Contains(q, "sequence") {
		t.Errorf("sequence text:\n%s", q)
	}
}

func TestFrameScatterAndTimeline(t *testing.T) {
	sr := miniStudy(t)
	sc := FrameScatter(sr, 0, false)
	if len(sc.Points) == 0 || !sc.YLog {
		t.Errorf("scatter: %d points, ylog=%v", len(sc.Points), sc.YLog)
	}
	renamed := FrameScatter(sr, 0, true)
	if !strings.Contains(renamed.Title, "tracked regions") {
		t.Errorf("renamed title = %q", renamed.Title)
	}
	norm := NormalizedScatter(sr, 0, true)
	for _, p := range norm.Points {
		if p.X < -0.01 || p.X > 1.01 || p.Y < -0.01 || p.Y > 1.01 {
			t.Fatalf("normalised point out of range: %+v", p)
		}
	}
	tl := TimelineOf(sr, 0, true, 0)
	if len(tl.Spans) != len(sr.Result.Frames[0].Trace.Bursts) {
		t.Errorf("timeline spans = %d", len(tl.Spans))
	}
	short := TimelineOf(sr, 0, false, 1)
	if len(short.Spans) >= len(tl.Spans) {
		t.Error("window did not limit the timeline")
	}
}

func TestTrendChartAndTable(t *testing.T) {
	sr := miniStudy(t)
	lc := TrendChart(sr, metrics.IPC, 0, false)
	if len(lc.Series) == 0 {
		t.Fatal("no trend series")
	}
	if len(lc.XTicks) != 4 {
		t.Errorf("xticks = %v", lc.XTicks)
	}
	// A very high variation bar empties the chart.
	if got := TrendChart(sr, metrics.IPC, 10, false); len(got.Series) != 0 {
		t.Error("variation bar ignored")
	}
	tb := TrendTable(sr, metrics.IPC)
	if len(tb.Rows) == 0 {
		t.Error("empty trend table")
	}
}

func TestWriteStudyReport(t *testing.T) {
	sr := miniStudy(t)
	var buf strings.Builder
	if err := WriteStudyReport(&buf, sr); err != nil {
		t.Fatal(err)
	}
	doc := buf.String()
	for _, want := range []string{
		"Frames:", "Tracked regions:", "spanning",
		"IPC per tracked region", "Evaluator matrices",
		"Relations per pair:", "Ground-truth validation",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("study report missing %q", want)
		}
	}
}

func TestMetricCorrelationChart(t *testing.T) {
	sr := miniStudy(t)
	lc := MetricCorrelationChart(sr, 1, []metrics.Metric{metrics.IPC, metrics.L2DMisses})
	if len(lc.Series) != 2 {
		t.Fatalf("series = %d", len(lc.Series))
	}
	for _, s := range lc.Series {
		maxV := 0.0
		for _, v := range s.Y {
			if v > maxV {
				maxV = v
			}
		}
		if maxV < 99.99 || maxV > 100.01 {
			t.Errorf("series %s max = %v, want 100", s.Name, maxV)
		}
	}
}
