package core

import (
	"math/rand"
	"strings"
	"testing"

	"maras/internal/faers"
	"maras/internal/synth"
)

// Metamorphic properties of the whole pipeline on the golden test's
// synthetic quarters: relations between runs that must hold whatever
// the exact ranked output is.

var metamorphicSeeds = []int64{1, 2, 3}

func metamorphicReports(t *testing.T, seed int64) []faers.Report {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", seed)
	cfg.Reports = goldenReports
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return q.Reports()
}

// signalScores runs the pipeline with every ranked signal kept and
// maps each signal's (drugs, reactions) to its score.
func signalScores(t *testing.T, reports []faers.Report, minsup int) map[string]float64 {
	t.Helper()
	opts := NewOptions()
	opts.MinSupport = minsup
	opts.TopK = 0
	a, err := Run(reports, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Signals) == 0 {
		t.Fatalf("minsup %d: no signals, the property would hold vacuously", minsup)
	}
	out := make(map[string]float64, len(a.Signals))
	for _, s := range a.Signals {
		key := strings.Join(s.Drugs, ",") + " => " + strings.Join(s.Reactions, ",")
		if _, dup := out[key]; dup {
			t.Fatalf("minsup %d: signal %s ranked twice", minsup, key)
		}
		out[key] = s.Score
	}
	return out
}

// TestMetamorphicReportOrder: the signal set and every score are a
// function of the report multiset, not of the order reports arrive in.
func TestMetamorphicReportOrder(t *testing.T) {
	for _, seed := range metamorphicSeeds {
		want := signalScores(t, metamorphicReports(t, seed), 8)
		// A fresh draw, so nothing the first run did to its input
		// reaches the shuffled run.
		shuffled := metamorphicReports(t, seed)
		rand.New(rand.NewSource(seed)).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		got := signalScores(t, shuffled, 8)
		if len(got) != len(want) {
			t.Errorf("seed %d: %d signals shuffled, %d in order", seed, len(got), len(want))
		}
		for key, score := range want {
			if g, ok := got[key]; !ok {
				t.Errorf("seed %d: shuffling lost %s", seed, key)
			} else if g != score {
				t.Errorf("seed %d: %s score %v shuffled, %v in order", seed, key, g, score)
			}
		}
	}
}

// TestMetamorphicMinsupMonotone: raising minsup only removes signals.
// Closedness and the MCAC score depend on supports in the whole
// database, not on the threshold, so a signal that survives a higher
// minsup keeps its exact score.
func TestMetamorphicMinsupMonotone(t *testing.T) {
	for _, seed := range metamorphicSeeds {
		reports := metamorphicReports(t, seed)
		base := signalScores(t, reports, 4)
		for _, minsup := range []int{8, 16} {
			for key, score := range signalScores(t, reports, minsup) {
				if b, ok := base[key]; !ok {
					t.Errorf("seed %d: %s signaled at minsup %d but not at 4", seed, key, minsup)
				} else if b != score {
					t.Errorf("seed %d: %s score %v at minsup %d, %v at 4", seed, key, score, minsup, b)
				}
			}
		}
	}
}
