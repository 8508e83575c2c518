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
// like the ones trackd serves, under trackd's upload configuration, the
// stream's seal-time fallback configurations, an evaluator ablation and a
// bridged sequence. The other determinism tests compare two runs of the
// same build; this one compares against hashes recorded once, so an
// optimisation of clustering, tracking or export that changes a single
// output byte fails here. The pair digest pins the per-pair evaluator
// matrices the export does not carry. Update the hashes only for a
// deliberate change of results.
func TestServiceScaleExportsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("service-scale pipeline runs")
	}
	service := Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	ablated := service
	ablated.DisableSPMD, ablated.DisableSequence = true, true
	cases := []struct {
		name                 string
		cfg                  Config
		seed                 uint64
		frames               int
		ranks, iters, phases int
		// emptyFrame, when >= 0, drops every burst of that frame so the
		// tracker bridges across it.
		emptyFrame   int
		want, digest string
	}{
		// 6 frames of 5,120 bursts in 4 phases.
		{"large-1", service, 1, 6, 32, 40, 4, -1,
			"f1dab166a12c6d1255961446914967413bd5564783112db2f58a7d357378743a",
			"2a26b4df0100b7786a5dcb4562bd25f895d37a6d9c1cfc29591132995ed177d1"},
		{"large-2", service, 2, 6, 32, 40, 4, -1,
			"15cb93db423817eec4509faffae663863842acfa7835f38b9656dad2ea598cd2",
			"2a26b4df0100b7786a5dcb4562bd25f895d37a6d9c1cfc29591132995ed177d1"},
		{"large-3", service, 3, 6, 32, 40, 4, -1,
			"f70360586c72f2198e3b736e6bf85bfbc11ab869a05fc909fb2337cef694177a",
			"2a26b4df0100b7786a5dcb4562bd25f895d37a6d9c1cfc29591132995ed177d1"},
		// 4 frames of 960 bursts in 3 phases.
		{"text-1", service, 1, 4, 16, 20, 3, -1,
			"68ed5fd942a75a7f17fe966649efceac05188de8ef71cce7abeb12d4bbcc920b",
			"060ed99ad0762422697c438035163fb8892724503f1502534e103b3758fb3753"},
		{"text-2", service, 2, 4, 16, 20, 3, -1,
			"7b7a13fe67696394cdfc56f2b049d36950cbde698c07dc6b648786e516218c87",
			"060ed99ad0762422697c438035163fb8892724503f1502534e103b3758fb3753"},
		{"text-3", service, 3, 4, 16, 20, 3, -1,
			"da8d6b5e95e0d9e84134c7f43fdbe4a9a1b035bb9864e73853dda41cc4350f6c",
			"060ed99ad0762422697c438035163fb8892724503f1502534e103b3758fb3753"},
		// The seal-time fallbacks of the stream: estimated eps, and the
		// top-duration filter.
		{"text-estimated", streamingConfig(2), 1, 4, 16, 20, 3, -1,
			"fbe3d2cb37d3c0612dfa05b32a8a9d316e020ec5cc360398633eb6a29d5efc27",
			"49c093850325dd3d98076ec038a27ff2dacac394515de29a983ef2fbadf5889d"},
		{"text-topduration", streamingConfig(3), 1, 4, 16, 20, 3, -1,
			"975eadf871f39eb4270de6469463e7b006b123f3f68738f10d0be352b172f9c9",
			"e4e6f321f8201e99d623a36eae86b59d5455733bb49ae0e737b12fe68fc80018"},
		// Displacement and call stacks alone.
		{"text-no-spmd-seq", ablated, 1, 4, 16, 20, 3, -1,
			"50639605d69edf414656a7ff680596710aaa0af46aa87746fbca3ade6cae2416",
			"9673c480964869cb82e071f18b92408a9f700a51624af62ff126674c0ddcad6b"},
		// One burst-less frame, bridged.
		{"text-bridged", service, 1, 4, 16, 20, 3, 1,
			"b0a433f26c27219824fde3fa07994bddbc48915464549641a07a5248faee8770",
			"ccd15dfdd02c1429034ce4320e143a35f7999e0b727729c6ca611a7407ae1a4f"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			traces := make([]*trace.Trace, tc.frames)
			for f := range traces {
				traces[f] = oracle.GenTraces(tc.seed*1_000+uint64(f), fmt.Sprintf("%s-f%d", tc.name, f),
					tc.ranks, tc.iters, tc.phases)
			}
			if tc.emptyFrame >= 0 {
				traces[tc.emptyFrame].Bursts = nil
			}
			res, err := Analyze(context.Background(), traces, 0, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.emptyFrame >= 0 && res.Diagnostics.FramesBridged != 1 {
				t.Fatalf("bridged %d frames, want 1", res.Diagnostics.FramesBridged)
			}
			var buf bytes.Buffer
			if err := res.WriteJSON(&buf, metrics.DefaultSpace()); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("export sha256 = %s, want %s (%d bytes)", got, tc.want, buf.Len())
			}
			if got := pairDigest(res); got != tc.digest {
				t.Errorf("pair digest = %s, want %s", got, tc.digest)
			}
		})
	}
}

// TestAnalyzeWindows checks that Analyze over one trace and 4 windows
// exports the same bytes as building and tracking the hand-split
// SplitWindows(4) sequence.
func TestAnalyzeWindows(t *testing.T) {
	cfg := Config{Cluster: cluster.Config{Eps: 0.07, MinPts: 5, MinClusterWeight: 0.002}}
	tr := oracle.GenTraces(7, "windowed", 16, 40, 3)
	ctx := context.Background()
	export := func(res *Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf, metrics.DefaultSpace()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got, err := Analyze(ctx, []*trace.Trace{tr}, 4, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := BuildFramesContext(ctx, tr.SplitWindows(4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewTracker(cfg).TrackContext(ctx, frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Frames) != 4 {
		t.Fatalf("Analyze over 4 windows built %d frames", len(got.Frames))
	}
	if !bytes.Equal(export(got), export(want)) {
		t.Error("Analyze over 4 windows differs from the hand-split SplitWindows(4) pipeline")
	}
}
