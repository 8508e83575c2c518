package report

import (
	"context"
	"fmt"

	"perftrack/internal/apps"
	"perftrack/internal/core"
)

// StudyResult bundles a catalog study with its tracking result; every
// report builder takes one.
type StudyResult struct {
	Study  apps.Study
	Result *core.Result
}

// RunStudy simulates a catalog study and tracks it.
func RunStudy(st apps.Study) (*StudyResult, error) {
	res, err := st.Run(context.Background())
	if err != nil {
		return nil, fmt.Errorf("report: study %s: %w", st.Name, err)
	}
	return &StudyResult{Study: st, Result: res}, nil
}

// RunAll runs every catalog study in Table 2 order.
func RunAll() ([]*StudyResult, error) {
	var out []*StudyResult
	for _, st := range apps.All() {
		sr, err := RunStudy(st)
		if err != nil {
			return nil, err
		}
		out = append(out, sr)
	}
	return out, nil
}

// FrameLabels returns the experiment labels of the study's frames.
func (sr *StudyResult) FrameLabels() []string {
	out := make([]string, len(sr.Result.Frames))
	for i, f := range sr.Result.Frames {
		out[i] = f.Label
	}
	return out
}

// Summary returns a one-paragraph outcome description.
func (sr *StudyResult) Summary() string {
	r := sr.Result
	return fmt.Sprintf("%s: %d input images, %d tracked regions (k), optimal k %d, coverage %s",
		sr.Study.Name, len(r.Frames), r.SpanningCount, r.OptimalK, Pct(r.Coverage))
}
