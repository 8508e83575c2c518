package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"perftrack/internal/cluster"
	"perftrack/internal/metrics"
	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// TestServiceScaleExportsPinned pins the exact export bytes of jobs shaped
// like the ones trackd serves, under trackd's upload configuration. The
// other determinism tests compare two runs of the same build; this one
// compares against hashes recorded once, so an optimisation of clustering,
// tracking or export that changes a single output byte fails here. Update
// the hashes only for a deliberate change of results.
func TestServiceScaleExportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("service-scale pipeline runs")
	}
	cfg := Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	cases := []struct {
		name                 string
		seed                 uint64
		frames               int
		ranks, iters, phases int
		want                 string
	}{
		// 6 frames of 5,120 bursts in 4 phases.
		{"large-1", 1, 6, 32, 40, 4,
			"f1dab166a12c6d1255961446914967413bd5564783112db2f58a7d357378743a"},
		{"large-2", 2, 6, 32, 40, 4,
			"15cb93db423817eec4509faffae663863842acfa7835f38b9656dad2ea598cd2"},
		{"large-3", 3, 6, 32, 40, 4,
			"f70360586c72f2198e3b736e6bf85bfbc11ab869a05fc909fb2337cef694177a"},
		// 4 frames of 960 bursts in 3 phases.
		{"text-1", 1, 4, 16, 20, 3,
			"68ed5fd942a75a7f17fe966649efceac05188de8ef71cce7abeb12d4bbcc920b"},
		{"text-2", 2, 4, 16, 20, 3,
			"7b7a13fe67696394cdfc56f2b049d36950cbde698c07dc6b648786e516218c87"},
		{"text-3", 3, 4, 16, 20, 3,
			"da8d6b5e95e0d9e84134c7f43fdbe4a9a1b035bb9864e73853dda41cc4350f6c"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces := make([]*trace.Trace, tc.frames)
			for f := range traces {
				traces[f] = oracle.GenTraces(tc.seed*1_000+uint64(f), fmt.Sprintf("%s-f%d", tc.name, f),
					tc.ranks, tc.iters, tc.phases)
			}
			ctx := context.Background()
			frames, err := BuildFramesContext(ctx, traces, cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := NewTracker(cfg).TrackContext(ctx, frames)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf, metrics.DefaultSpace()); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Fatalf("export sha256 = %s, want %s (%d bytes)", got, tc.want, buf.Len())
			}
		})
	}
}
