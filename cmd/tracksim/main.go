// Command tracksim generates burst-level traces for the catalog's
// synthetic applications, writing one perftrack trace file per experiment.
// These files are the interchange format the analysis tool (trackctl)
// consumes, playing the role Extrae traces play for the original tool.
//
// Usage:
//
//	tracksim -list
//	tracksim -study WRF [-out DIR]
//	tracksim -all [-out DIR]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"perftrack/internal/apps"
	"perftrack/internal/trace"
)

func main() {
	list := flag.Bool("list", false, "list the available studies and exit")
	study := flag.String("study", "", "generate the traces of one study")
	all := flag.Bool("all", false, "generate the traces of every study")
	outDir := flag.String("out", "traces", "output directory")
	flag.Parse()

	if err := run(*list, *study, *all, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "tracksim:", err)
		os.Exit(1)
	}
}

func run(list bool, study string, all bool, outDir string) error {
	if list {
		for _, st := range apps.All() {
			fmt.Printf("%-18s %2d experiments  %s\n", st.Name, len(st.Runs), st.Description)
		}
		return nil
	}
	var studies []apps.Study
	switch {
	case all:
		studies = apps.All()
	case study != "":
		st, err := apps.ByName(study)
		if err != nil {
			return err
		}
		studies = []apps.Study{st}
	default:
		return fmt.Errorf("nothing to do: pass -list, -study NAME or -all")
	}
	for _, st := range studies {
		if err := generate(st, outDir); err != nil {
			return err
		}
	}
	return nil
}

func generate(st apps.Study, outDir string) error {
	dir := filepath.Join(outDir, sanitize(st.Name))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	traces, err := st.Simulate(context.Background())
	if err != nil {
		return err
	}
	for i, t := range traces {
		name := fmt.Sprintf("%02d_%s.prv.txt", i, sanitize(t.Meta.Label))
		path := filepath.Join(dir, name)
		if err := trace.WriteFile(path, t); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%s)\n", path, t.Summary())
	}
	return nil
}

func sanitize(s string) string {
	r := strings.NewReplacer(" ", "_", "/", "-", ":", "-")
	return r.Replace(s)
}
