// Command trackctl is the analysis front end: it clusters and tracks
// perftrack trace files (as produced by tracksim or any external
// converter) and reports the outcome — the role of the paper's tracking
// tool over Paraver traces.
//
// Usage:
//
//	trackctl cluster [-eps E] [-minpts N] [-svg FILE] TRACE
//	trackctl track   [-eps E] [-minpts N] [-svg DIR] [-metrics M1,M2] [-windows N] TRACE...
//	trackctl report  [-windows N] TRACE...
//	trackctl profile TRACE...
//	trackctl animate [-o FILE] [-seconds S] TRACE...
//	trackctl export  [-o FILE] TRACE...
//	trackctl submit  [-addr URL] [-timeout D] [-study NAME] [-series S] [-run L] [-o FILE] [TRACE...]
//	trackctl stream  [-addr URL] [-timeout D] [-rate R] [-window SPEC] [-chunk N] [-series S] [-run L] TRACE...
//	trackctl history [-addr URL] [-timeout D] [-series S]
//	trackctl diff    [-addr URL] [-timeout D] [-metric M] KEYA KEYB
//	trackctl regressions [-addr URL] [-timeout D] -series S [-metric M] [-window N] [-mads X] [-minrel X]
//	trackctl eval    [-seeds S1,S2] [-severity F] [-gate] [-timing] [-o FILE] [-store DIR] [-series S] [-run L]
//	trackctl convert [-to colbin|text] [-o FILE] TRACE...
//	trackctl info    TRACE...
//
// cluster renders the frame of a single experiment; track correlates a
// sequence of experiments (or the time windows of a single one), prints
// the tracked regions, coverage and trend tables, and optionally writes
// the renamed scatter frames as SVG; report prints the full analysis
// including evaluator matrices and ground-truth validation; profile runs
// the classic flat-profile baseline; animate emits the tracked sequence
// as a self-playing SVG; export serialises the result as JSON.
//
// Every subcommand accepts -lenient, which decodes trace files in lenient
// mode: malformed burst lines are quarantined (with per-file counts
// reported to stderr) instead of aborting the analysis, and the skipped
// lines are accounted for in the result's diagnostics.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"perftrack/internal/apps"
	"perftrack/internal/cluster"
	"perftrack/internal/core"
	"perftrack/internal/metrics"
	"perftrack/internal/plot"
	"perftrack/internal/report"
	"perftrack/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "cluster":
		err = cmdCluster(os.Args[2:])
	case "track":
		err = cmdTrack(os.Args[2:])
	case "info":
		err = cmdInfo(os.Args[2:])
	case "profile":
		err = cmdProfile(os.Args[2:])
	case "report":
		err = cmdReport(os.Args[2:])
	case "animate":
		err = cmdAnimate(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "submit":
		err = cmdSubmit(os.Args[2:])
	case "stream":
		err = cmdStream(os.Args[2:])
	case "history":
		err = cmdHistory(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "regressions":
		err = cmdRegressions(os.Args[2:])
	case "eval":
		err = cmdEval(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown subcommand %q", os.Args[1])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trackctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  trackctl cluster [-eps E] [-minpts N] [-svg FILE] TRACE
  trackctl track   [-eps E] [-minpts N] [-svg DIR] [-metrics M1,M2] TRACE...
  trackctl profile TRACE...
  trackctl report  [-windows N] TRACE...
  trackctl animate [-o FILE] [-seconds S] TRACE...
  trackctl export  [-o FILE] TRACE...
  trackctl submit  [-addr URL] [-timeout D] [-study NAME] [-series S] [-run L] [-o FILE] [TRACE...]
  trackctl stream  [-addr URL] [-timeout D] [-rate R] [-window SPEC] [-chunk N] [-series S] [-run L] TRACE...
  trackctl history [-addr URL] [-timeout D] [-series S]
  trackctl diff    [-addr URL] [-timeout D] [-metric M] KEYA KEYB
  trackctl regressions [-addr URL] [-timeout D] -series S [-metric M] [-window N] [-mads X] [-minrel X]
  trackctl eval    [-seeds S1,S2] [-severity F] [-gate] [-timing] [-o FILE] [-store DIR] [-series S] [-run L]
  trackctl convert [-to colbin|text] [-o FILE] TRACE...
  trackctl info    TRACE...

submit sends the analysis to a running trackd daemon instead of
executing it locally, and honours the daemon's queue backpressure;
with -series the stored result joins a named run history. stream
replays trace files into a live daemon stream session — bursts are
appended in chunks (paced to -rate bursts/second), windows seal as
-window fills (a burst count or a duration), and every sealed window
prints its rolling delta: clustering, coverage, and trend movement.
history,
diff and regressions read the daemon's persistent store: the result
listing, an object-level diff of two stored runs, and the trajectory
engine's changepoint verdicts over a series.

eval runs the tracking-quality evaluation suite against the planted
ground-truth scenario corpus and prints per-family MOT-style quality
tables; -gate enforces the scorecard floors (the CI quality gate), and
-store files the scorecard into a perfdb directory so regressions can
judge quality history like any other series.

-addr accepts a comma-separated list of base URLs (the nodes of a
sharded trackd cluster): a refused connection fails over to the next
endpoint, and once one answers the operation sticks to it.

every daemon subcommand accepts -timeout D: one deadline for the whole
operation (submit retries, result polls, every request), enforced
through a context rather than a per-request client timeout. Ctrl-C
cancels cleanly at any point.

convert translates between the text format and the binary columnar
(colbin) format; every subcommand sniffs the input format, so .colbin
files work anywhere a text trace does, including submit (which sends
them as binary bodies the daemon ingests without a text parse).

every subcommand accepts -lenient: tolerate malformed trace lines by
quarantining them (diagnostics go to stderr) instead of failing.`)
}

// analysisFlags registers the flags shared by cluster and track.
func analysisFlags(fs *flag.FlagSet) (eps *float64, minPts *int, metricNames *string) {
	eps = fs.Float64("eps", 0.07, "DBSCAN radius in normalised space (0 = k-dist heuristic)")
	minPts = fs.Int("minpts", 5, "DBSCAN density threshold (0 = auto)")
	metricNames = fs.String("metrics", "IPC,Instructions", "comma-separated metric names spanning the space")
	return
}

func buildConfig(eps float64, minPts int, metricNames string) (core.Config, error) {
	cfg := core.Config{
		Cluster: cluster.Config{Eps: eps, MinPts: minPts, MinClusterWeight: 0.002},
	}
	for _, name := range strings.Split(metricNames, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		m, ok := metrics.ByName(name)
		if !ok {
			return cfg, fmt.Errorf("unknown metric %q", name)
		}
		cfg.Metrics = append(cfg.Metrics, m)
	}
	return cfg, nil
}

// lenientMode is set by the -lenient flag (see lenientFlag); linesSkipped
// accumulates the malformed lines the lenient decoder quarantined so the
// result diagnostics can account for them.
var (
	lenientMode  bool
	linesSkipped int
)

// lenientFlag registers -lenient on a subcommand's flag set. Every
// subcommand that reads trace files supports it.
func lenientFlag(fs *flag.FlagSet) {
	fs.BoolVar(&lenientMode, "lenient", false,
		"tolerate malformed trace lines: quarantine them and report counts to stderr")
}

func loadTraces(paths []string) ([]*trace.Trace, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace files given")
	}
	out := make([]*trace.Trace, 0, len(paths))
	for _, p := range paths {
		// ReadFile sniffs the colbin magic, so every subcommand accepts
		// text and binary columnar traces interchangeably.
		t, diag, err := trace.ReadFile(p, trace.DecodeOptions{Strict: !lenientMode})
		if err != nil {
			return nil, err
		}
		if diag.Summary() != "" {
			fmt.Fprintf(os.Stderr, "trackctl: %s: %s\n", p, diag.Summary())
		}
		linesSkipped += diag.Skipped()
		out = append(out, t)
	}
	return out, nil
}

// noteDiagnostics folds the lenient-decode accounting into the result and
// reports any degraded-mode activity to stderr, keeping stdout clean for
// the analysis itself.
func noteDiagnostics(res *core.Result) {
	res.Diagnostics.AddDecode(linesSkipped)
	if !res.Diagnostics.Clean() {
		fmt.Fprintln(os.Stderr, "trackctl: diagnostics:", res.Diagnostics.Summary())
	}
}

func cmdInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	lenientFlag(fs)
	fs.Parse(args)
	traces, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	for _, t := range traces {
		fmt.Println(t.Summary())
		fmt.Printf("  machine=%s compiler=%s tasksPerNode=%d params=%v\n",
			t.Meta.Machine, t.Meta.Compiler, t.Meta.TasksPerNode, t.Meta.Params)
		fmt.Printf("  %d distinct call-stack refs\n", len(t.Stacks()))
	}
	return nil
}

func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	eps, minPts, metricNames := analysisFlags(fs)
	svgPath := fs.String("svg", "", "write the frame scatter as SVG to this file")
	lenientFlag(fs)
	fs.Parse(args)
	cfg, err := buildConfig(*eps, *minPts, *metricNames)
	if err != nil {
		return err
	}
	traces, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	if len(traces) != 1 {
		return fmt.Errorf("cluster analyses exactly one trace, got %d", len(traces))
	}
	frames, err := core.BuildFramesContext(context.Background(), traces, cfg)
	if err != nil {
		return err
	}
	f := frames[0]
	fmt.Printf("%s: %d bursts, %d clusters (eps=%g, minPts=%d)\n",
		f.Label, len(f.Labels), f.NumClusters, cfg.Cluster.Eps, cfg.Cluster.MinPts)
	for _, ci := range f.Clusters[1:] {
		fmt.Printf("  cluster %-3d size=%-6d time=%8.3fs  centroid=%v\n",
			ci.ID, ci.Size, ci.TotalDurationNS/1e9, fmtCentroid(ci.RawCentroid))
	}
	sc := frameScatter(f, cfg, f.Labels, "clusters")
	fmt.Println(sc.ASCII(0, 0))
	if *svgPath != "" {
		return os.WriteFile(*svgPath, []byte(sc.SVG()), 0o644)
	}
	return nil
}

func cmdTrack(args []string) error {
	fs := flag.NewFlagSet("track", flag.ExitOnError)
	eps, minPts, metricNames := analysisFlags(fs)
	svgDir := fs.String("svg", "", "write renamed scatter frames as SVG into this directory")
	minVar := fs.Float64("minvar", 0.03, "minimum trend variation to report")
	windows := fs.Int("windows", 0, "split a single trace into N time windows and track their evolution")
	lenientFlag(fs)
	fs.Parse(args)
	cfg, err := buildConfig(*eps, *minPts, *metricNames)
	if err != nil {
		return err
	}
	traces, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	if *windows <= 1 && len(traces) < 2 {
		return fmt.Errorf("track needs at least two traces (or one trace with -windows), got %d", len(traces))
	}
	res, err := core.Analyze(context.Background(), traces, *windows, cfg)
	if err != nil {
		return err
	}
	noteDiagnostics(res)

	fmt.Printf("%d frames, %d tracked regions, optimal k=%d, coverage %.0f%%\n",
		len(res.Frames), res.SpanningCount, res.OptimalK, 100*res.Coverage)
	for _, tr := range res.Regions {
		span := "partial"
		if tr.Spanning {
			span = "spanning"
		}
		fmt.Printf("  region %-3d %-8s time=%8.3fs members=%v\n",
			tr.ID, span, tr.TotalDurationNS/1e9, tr.Members)
	}
	sr := &report.StudyResult{
		Study:  apps.Study{Name: "trackctl", Track: cfg, ParamName: "experiment"},
		Result: res,
	}
	for _, m := range cfg.Metrics {
		fmt.Println(report.TrendTable(sr, m))
	}
	// Call out the regions whose behaviour actually moves (the paper
	// plots "only the regions with higher IPC variations").
	for _, m := range cfg.Metrics {
		notable := res.TopTrends(m, *minVar)
		if len(notable) == 0 {
			continue
		}
		fmt.Printf("notable %s trends (variation >= %.0f%%):\n", m.Name, 100**minVar)
		for _, rt := range notable {
			fmt.Printf("  region %-3d max variation %5.1f%%  first->last %+.1f%%\n",
				rt.RegionID, 100*rt.MaxVariation(), 100*rt.RelDeltaMean())
		}
		fmt.Println()
	}
	if *svgDir != "" {
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for fi, f := range res.Frames {
			sc := frameScatter(f, cfg, res.RegionLabels(fi), "tracked regions")
			path := filepath.Join(*svgDir, fmt.Sprintf("frame_%02d.svg", fi))
			if err := os.WriteFile(path, []byte(sc.SVG()), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", path)
		}
	}
	return nil
}

func frameScatter(f *core.Frame, cfg core.Config, labels []int, kind string) *plot.Scatter {
	ms := cfg.Metrics
	if len(ms) == 0 {
		ms = metrics.DefaultSpace()
	}
	sc := &plot.Scatter{
		Title:  fmt.Sprintf("%s (%s)", f.Label, kind),
		XLabel: ms[0].Name,
		YLabel: ms[1].Name,
		XLog:   ms[0].LogScale,
		YLog:   ms[1].LogScale,
	}
	for i, p := range f.Points {
		sc.Points = append(sc.Points, plot.ScatterPoint{X: p[0], Y: p[1], Class: labels[i]})
	}
	return sc
}

func fmtCentroid(c []float64) string {
	parts := make([]string, len(c))
	for i, v := range c {
		parts[i] = report.SI(v)
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
