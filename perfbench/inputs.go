package main

import (
	"math/rand"

	"maras/internal/faers"
	"maras/internal/synth"
)

// Every quarter the benchmark mines is drawn from one fixed synthetic
// population: synth.DefaultConfig with world seed populationSeed,
// generated at populationReports reports. The run's seed picks which
// quarterCases cases (about 15k reports, duplicates included) form a
// quarter. Different worlds (different synth seeds) gave 7.8k to
// 12.5k ranked signals over five seeds, and mining time follows, which
// would swamp any regression bound; draws from one world keep the
// inputs varied while the work per quarter stays comparable.
const (
	populationSeed    = 1
	populationReports = 17_000
	quarterCases      = 15_000
)

// population generates the shared report population.
func population() (*faers.Quarter, error) {
	cfg := synth.DefaultConfig("2014Q1", populationSeed)
	cfg.Reports = populationReports
	q, _, err := synth.Generate(cfg)
	return q, err
}

// drawQuarter returns a quarter labelled label holding n cases drawn
// from pool without replacement; every version of a chosen case (the
// duplicate reports the cleaning stage must collapse) comes along.
func drawQuarter(pool *faers.Quarter, label string, seed int64, n int) *faers.Quarter {
	var cases []string
	seen := map[string]bool{}
	for _, d := range pool.Demos {
		if !seen[d.CaseID] {
			seen[d.CaseID] = true
			cases = append(cases, d.CaseID)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cases), func(i, j int) { cases[i], cases[j] = cases[j], cases[i] })
	if n > len(cases) {
		n = len(cases)
	}
	keepCase := make(map[string]bool, n)
	for _, c := range cases[:n] {
		keepCase[c] = true
	}
	q := &faers.Quarter{Label: label}
	keep := map[string]bool{}
	for _, d := range pool.Demos {
		if keepCase[d.CaseID] {
			q.Demos = append(q.Demos, d)
			keep[d.PrimaryID] = true
		}
	}
	for _, d := range pool.Drugs {
		if keep[d.PrimaryID] {
			q.Drugs = append(q.Drugs, d)
		}
	}
	for _, r := range pool.Reacs {
		if keep[r.PrimaryID] {
			q.Reacs = append(q.Reacs, r)
		}
	}
	for _, o := range pool.Outcs {
		if keep[o.PrimaryID] {
			q.Outcs = append(q.Outcs, o)
		}
	}
	return q
}
