package trackeval

import (
	"context"
	"fmt"
	"sort"
	"time"

	"perftrack/internal/cluster"
	"perftrack/internal/core"
)

// Timing is the per-stage wall-clock breakdown of an evaluation. It is
// excluded from the canonical scorecard JSON (timings are never
// deterministic) and surfaced separately.
type Timing struct {
	GenerateNS int64 `json:"generateNs"`
	BuildNS    int64 `json:"buildNs"`
	TrackNS    int64 `json:"trackNs"`
	ScoreNS    int64 `json:"scoreNs"`
	DiagnoseNS int64 `json:"diagnoseNs"`
}

func (t *Timing) add(o Timing) {
	t.GenerateNS += o.GenerateNS
	t.BuildNS += o.BuildNS
	t.TrackNS += o.TrackNS
	t.ScoreNS += o.ScoreNS
	t.DiagnoseNS += o.DiagnoseNS
}

// TotalNS is the summed wall-clock of all stages.
func (t Timing) TotalNS() int64 {
	return t.GenerateNS + t.BuildNS + t.TrackNS + t.ScoreNS + t.DiagnoseNS
}

// ScenarioScore is the scored outcome of one corpus scenario.
type ScenarioScore struct {
	Name     string  `json:"name"`
	Family   string  `json:"family"`
	Seed     uint64  `json:"seed"`
	Fault    string  `json:"fault,omitempty"`
	Severity float64 `json:"severity,omitempty"`

	Frames         int     `json:"frames"`
	DegradedFrames int     `json:"degradedFrames"`
	Regions        int     `json:"regions"`
	Spanning       int     `json:"spanning"`
	OptimalK       int     `json:"optimalK"`
	CoreCoverage   float64 `json:"coreCoverage"`

	MOT

	Timing Timing `json:"-"`
}

// DefaultConfig is the evaluation pipeline configuration: identical to
// the trackctl / service defaults so the gate scores the tracker users
// actually run.
func DefaultConfig() core.Config {
	return core.Config{Cluster: cluster.Config{
		Eps:              0.07,
		MinPts:           5,
		MinClusterWeight: 0.002,
	}}
}

// EvaluateScenario runs the full pipeline (frames, tracking, scoring)
// over one scenario and returns its score.
func EvaluateScenario(sc Scenario, cfg core.Config) (ScenarioScore, error) {
	ss := ScenarioScore{
		Name:     sc.Name,
		Family:   sc.Family,
		Seed:     sc.Seed,
		Fault:    sc.Fault,
		Severity: sc.Severity,
	}

	t0 := time.Now()
	frames, err := core.BuildFramesContext(context.Background(), sc.Traces, cfg)
	if err != nil {
		return ss, fmt.Errorf("scenario %s: building frames: %w", sc.Name, err)
	}
	t1 := time.Now()
	res, err := core.NewTracker(cfg).TrackContext(context.Background(), frames)
	if err != nil {
		return ss, fmt.Errorf("scenario %s: tracking: %w", sc.Name, err)
	}
	t2 := time.Now()
	ss.MOT = Score(res)
	t3 := time.Now()

	ss.Frames = len(res.Frames)
	for _, f := range res.Frames {
		if f.Degraded {
			ss.DegradedFrames++
		}
	}
	ss.Regions = len(res.Regions)
	ss.Spanning = res.SpanningCount
	ss.OptimalK = res.OptimalK
	ss.CoreCoverage = res.Coverage
	ss.Timing = Timing{
		BuildNS: t1.Sub(t0).Nanoseconds(),
		TrackNS: t2.Sub(t1).Nanoseconds(),
		ScoreNS: t3.Sub(t2).Nanoseconds(),
	}
	return ss, nil
}

// Options parametrises a corpus evaluation.
type Options struct {
	// Seeds selects the corpus slices (default PinnedSeeds()).
	Seeds []uint64
	// Ranks, Iters and Severity forward to CorpusSpec.
	Ranks, Iters int
	Severity     float64
	// Config overrides the pipeline configuration (nil = DefaultConfig).
	Config *core.Config
	// SkipDiagnosis skips the planted-cause diagnosis corpus.
	SkipDiagnosis bool
}

// Evaluate runs the scenario corpus (and, unless skipped, the diagnosis
// corpus) over every seed and folds the scores into one scorecard.
func Evaluate(opts Options) (*Scorecard, error) {
	seeds := opts.Seeds
	if len(seeds) == 0 {
		seeds = PinnedSeeds()
	}
	cfg := DefaultConfig()
	if opts.Config != nil {
		cfg = *opts.Config
	}
	spec := CorpusSpec{Ranks: opts.Ranks, Iters: opts.Iters, Severity: opts.Severity}.withDefaults()

	card := &Scorecard{
		Version:  scorecardVersion,
		Seeds:    append([]uint64(nil), seeds...),
		Ranks:    spec.Ranks,
		Iters:    spec.Iters,
		Severity: spec.Severity,
	}
	for _, seed := range seeds {
		spec.Seed = seed
		tg0 := time.Now()
		corpus := Corpus(spec)
		card.Timing.GenerateNS += time.Since(tg0).Nanoseconds()
		for _, sc := range corpus {
			ss, err := EvaluateScenario(sc, cfg)
			if err != nil {
				return nil, err
			}
			card.Timing.add(ss.Timing)
			card.Scenarios = append(card.Scenarios, ss)
		}
		if !opts.SkipDiagnosis {
			td0 := time.Now()
			diags, err := EvaluateDiagnosisCorpus(seed, cfg)
			if err != nil {
				return nil, err
			}
			card.Timing.DiagnoseNS += time.Since(td0).Nanoseconds()
			card.Diagnoses = append(card.Diagnoses, diags...)
		}
	}

	sort.Slice(card.Scenarios, func(i, j int) bool {
		a, b := &card.Scenarios[i], &card.Scenarios[j]
		if a.Family != b.Family {
			return a.Family < b.Family
		}
		return a.Seed < b.Seed
	})
	sort.Slice(card.Diagnoses, func(i, j int) bool {
		a, b := &card.Diagnoses[i], &card.Diagnoses[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		return a.Seed < b.Seed
	})
	card.fold()
	return card, nil
}
