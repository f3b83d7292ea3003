package watch

import (
	"context"
	"math"
	"strings"

	"maras/internal/core"
	"maras/internal/knowledge"
)

// Signal is the distilled view of one ranked signal the evaluator
// consumes: identity, the normalized terms routing goes through, and
// the quantities the qualification gates compare. Keeping it separate
// from core.Signal lets benchmarks and tests synthesize populations
// of signals without running the mining pipeline.
type Signal struct {
	Key          string   // canonical drug-combination key
	Drugs        []string // upper-cased drug names
	Reactions    []string // knowledge.NormReaction'd terms
	Rank         int
	Score        float64
	Support      int
	SeriousShare float64
	Known        *knowledge.Interaction // nil = not curated
}

// FromAnalysis distills a mined quarter's ranked signals.
func FromAnalysis(a *core.Analysis) []Signal {
	out := make([]Signal, len(a.Signals))
	for i := range a.Signals {
		sig := &a.Signals[i]
		drugs := make([]string, len(sig.Drugs))
		for j, d := range sig.Drugs {
			drugs[j] = strings.ToUpper(strings.TrimSpace(d))
		}
		reacs := make([]string, len(sig.Reactions))
		for j, r := range sig.Reactions {
			reacs[j] = knowledge.NormReaction(r)
		}
		out[i] = Signal{
			Key:          sig.Key(),
			Drugs:        drugs,
			Reactions:    reacs,
			Rank:         sig.Rank,
			Score:        sig.Score,
			Support:      sig.Support,
			SeriousShare: sig.SeriousShare,
			Known:        sig.Known,
		}
	}
	return out
}

// EvaluateAnalysis distills and evaluates a mined quarter in one
// call — the store registry's OnLoad hook uses this, including for
// the quarter a server without -store mines at startup.
func (ev *Evaluator) EvaluateAnalysis(ctx context.Context, label string, a *core.Analysis) Result {
	return ev.EvaluateQuarter(ctx, label, FromAnalysis(a))
}

// FNV-1a, inlined so fingerprinting and alert dedup hash without
// per-call allocations.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// identity hashes the dimensions that name a signal: the drug
// combination plus its reaction set. Rankings can carry several
// signals for the same drug combination (distinct reaction sets), so
// the drug key alone is not a stable identity for change tracking.
func (s *Signal) identity() uint64 {
	h := fnvStr(uint64(fnvOffset), s.Key)
	for _, r := range s.Reactions {
		h = fnvStr(h, r)
		h = fnvU64(h, '\n')
	}
	return h
}

// fingerprint summarizes the alert-relevant state of a signal in a
// quarter. Two loads of byte-identical signal state produce equal
// fingerprints, so re-loading an unchanged quarter routes zero
// signals through the index.
func (s *Signal) fingerprint() uint64 {
	h := fnvStr(uint64(fnvOffset), s.Key)
	h = fnvU64(h, uint64(s.Rank))
	h = fnvU64(h, math.Float64bits(s.Score))
	h = fnvU64(h, uint64(s.Support))
	h = fnvU64(h, math.Float64bits(s.SeriousShare))
	for _, r := range s.Reactions {
		h = fnvStr(h, r)
		h = fnvU64(h, '\n')
	}
	return h
}

// severity grades a signal for the severity-floor gate: the curated
// severity when the combination is known, otherwise derived from the
// share of supporting reports with serious outcomes.
func (s *Signal) severity() int {
	if s.Known != nil {
		switch s.Known.Severity {
		case knowledge.Severe:
			return sevSevere
		case knowledge.Moderate:
			return sevModerate
		default:
			return sevMinor
		}
	}
	switch {
	case s.SeriousShare >= 0.5:
		return sevSevere
	case s.SeriousShare >= 0.2:
		return sevModerate
	default:
		return sevMinor
	}
}
