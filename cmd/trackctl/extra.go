package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"perftrack"
	"perftrack/internal/apps"
	"perftrack/internal/core"
	"perftrack/internal/plot"
	"perftrack/internal/profile"
	"perftrack/internal/report"
)

// cmdProfile runs the classic profile-based baseline over the traces: per
// region averages and their cross-experiment deltas, plus the
// multi-modality warnings showing what the averages hide (the comparison
// the paper draws against SCALASCA/PerfExplorer-style analysis).
func cmdProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	lenientFlag(fs)
	fs.Parse(args)
	traces, err := loadTraces(fs.Args())
	if err != nil {
		return err
	}
	profiles := make([]*profile.Profile, len(traces))
	for i, t := range traces {
		profiles[i] = profile.New(t)
		fmt.Println(profiles[i])
	}
	for i := 1; i < len(profiles); i++ {
		fmt.Printf("delta %s -> %s:\n", profiles[i-1].Label, profiles[i].Label)
		for _, d := range profile.Compare(profiles[i-1], profiles[i]) {
			switch {
			case d.A == nil:
				fmt.Printf("  %-34s appears only in %s\n", d.Stack, profiles[i].Label)
			case d.B == nil:
				fmt.Printf("  %-34s appears only in %s\n", d.Stack, profiles[i-1].Label)
			default:
				fmt.Printf("  %-34s time x%.3f  IPC x%.3f\n", d.Stack, d.DurationRatio, d.IPCRatio)
			}
		}
	}
	return nil
}

// cmdAnimate tracks the traces and writes the renamed frame sequence as a
// grid and as a self-playing SVG animation.
func cmdAnimate(args []string) error {
	fs := flag.NewFlagSet("animate", flag.ExitOnError)
	eps, minPts, metricNames := analysisFlags(fs)
	out := fs.String("o", "animation.svg", "output SVG (a _grid.svg variant is written too)")
	secs := fs.Float64("seconds", 1, "seconds per frame")
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
	res, err := perftrack.Track(traces, cfg)
	if err != nil {
		return err
	}
	noteDiagnostics(res)
	strip := &plot.Filmstrip{
		Title:        "tracked performance space",
		FrameSeconds: *secs,
	}
	for fi, f := range res.Frames {
		strip.Frames = append(strip.Frames, frameScatter(f, cfg, res.RegionLabels(fi), "tracked regions"))
	}
	if err := os.WriteFile(*out, []byte(strip.AnimatedSVG()), 0o644); err != nil {
		return err
	}
	grid := gridName(*out)
	if err := os.WriteFile(grid, []byte(strip.GridSVG()), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (animation) and %s (grid), %d frames, coverage %.0f%%\n",
		*out, grid, len(res.Frames), 100*res.Coverage)
	return nil
}

func gridName(path string) string {
	const suffix = ".svg"
	if len(path) > len(suffix) && path[len(path)-len(suffix):] == suffix {
		return path[:len(path)-len(suffix)] + "_grid" + suffix
	}
	return path + "_grid.svg"
}

// cmdReport tracks the traces and prints the complete textual analysis:
// frames, relations, evaluator matrices, trends and validation.
func cmdReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	eps, minPts, metricNames := analysisFlags(fs)
	windows := fs.Int("windows", 0, "split a single trace into N time windows first")
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
	res, err := core.Analyze(context.Background(), traces, *windows, cfg)
	if err != nil {
		return err
	}
	noteDiagnostics(res)
	sr := &report.StudyResult{
		Study:  apps.Study{Name: traces[0].Meta.App, Track: cfg, ParamName: "experiment"},
		Result: res,
	}
	return report.WriteStudyReport(os.Stdout, sr)
}

// cmdExport tracks the traces and writes the result as JSON for external
// tooling.
func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	eps, minPts, metricNames := analysisFlags(fs)
	out := fs.String("o", "", "output file (default stdout)")
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
	res, err := perftrack.Track(traces, cfg)
	if err != nil {
		return err
	}
	noteDiagnostics(res)
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	return res.WriteJSON(w, cfg.Metrics)
}
