package service

import (
	"fmt"
	"strings"
	"testing"

	"perftrack/internal/oracle"
	"perftrack/internal/trace"
)

// TestResolveKeysPinned pins the cache key resolve computes for requests
// shaped like the ones trackd serves. The key addresses every stored
// result and journaled intent across restarts, so a change to the trace
// hash or the fingerprint encoding that moves a single byte orphans them
// all. The keys were recorded once; update them only together with a
// deliberate key-version bump.
func TestResolveKeysPinned(t *testing.T) {
	var large [][]byte
	for i := 0; i < 6; i++ {
		large = append(large, trace.EncodeColbin(oracle.GenTraces(uint64(40+i), fmt.Sprintf("large-f%d", i), 32, 40, 4)))
	}
	var text []string
	for i := 0; i < 4; i++ {
		var sb strings.Builder
		if err := trace.Write(&sb, oracle.GenTraces(uint64(50+i), fmt.Sprintf("text-f%d", i), 16, 20, 3)); err != nil {
			t.Fatal(err)
		}
		text = append(text, sb.String())
	}
	cases := []struct {
		name string
		req  JobRequest
		want string
	}{
		{"colbin-large", JobRequest{TracesBin: large},
			"0084527ae7fd2603be63c8c426c8f55e51f88e7cdcfb901e9e43a4e275cb8d36"},
		{"text", JobRequest{Traces: text, Config: &ConfigSpec{MaxClusters: 101}},
			"a1279e846de11c1a604e54d0f8c561b92cbd80fff1f785887d57664bb41cf79a"},
		{"study", JobRequest{Study: "CGPOP"},
			"f488e58b4ddf41fe52d00f4831ef42d95dd707d56b9a4730ffcf7c5f11b404ab"},
	}
	for _, tc := range cases {
		spec, err := resolve(tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.key != tc.want {
			t.Errorf("%s: key %s, want pinned %s", tc.name, spec.key, tc.want)
		}
	}
}
