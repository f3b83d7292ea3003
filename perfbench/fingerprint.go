package main

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"sort"
	"strconv"
	"strings"
)

// rankedSignal is the part of a ranked signal the fingerprint covers.
type rankedSignal struct {
	Rank      int
	Drugs     []string
	Reactions []string
	Support   int
	Score     float64
}

// fingerprint is a canonical SHA-256 over a ranked signal list: one
// line per signal in rank order with its sorted drugs, sorted
// reactions, support, and score rounded to 1e-12. Two pipeline runs
// agree exactly when their fingerprints are equal.
func fingerprint(signals []rankedSignal) string {
	s := append([]rankedSignal(nil), signals...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].Rank < s[j].Rank })
	h := sha256.New()
	var b strings.Builder
	for _, sig := range s {
		b.Reset()
		b.WriteString(strconv.Itoa(sig.Rank))
		b.WriteByte('\t')
		b.WriteString(strings.Join(sortedStrings(sig.Drugs), "+"))
		b.WriteByte('\t')
		b.WriteString(strings.Join(sortedStrings(sig.Reactions), ";"))
		b.WriteByte('\t')
		b.WriteString(strconv.Itoa(sig.Support))
		b.WriteByte('\t')
		b.WriteString(strconv.FormatFloat(math.Round(sig.Score*1e12)/1e12, 'f', 12, 64))
		b.WriteByte('\n')
		h.Write([]byte(b.String()))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sortedStrings(xs []string) []string {
	s := append([]string(nil), xs...)
	sort.Strings(s)
	return s
}
