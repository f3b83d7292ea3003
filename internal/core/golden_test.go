package core

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"maras/internal/synth"
)

// goldenPath holds one line per (seed, minsup) draw: the hex SHA-256
// of the ranked output, then the signal count. Any change to it must
// come with a CHANGES.md entry explaining why the ranking moved.
const goldenPath = "testdata/golden_fingerprint.txt"

// goldenReports keeps each draw small enough that all nine runs stay
// cheap under -race.
const goldenReports = 3000

// round12 rounds x to 1e-12 so the fingerprint does not depend on
// last-bit floating-point differences between platforms.
func round12(x float64) int64 { return int64(math.Round(x * 1e12)) }

// fingerprintSignals hashes the full ranked signal list: per signal
// its rank, drugs, reactions, support, score and support type, and
// per contextual rule (in cluster layout order) its supports,
// confidence and lift.
func fingerprintSignals(h hash.Hash, signals []Signal) {
	for _, s := range signals {
		fmt.Fprintf(h, "S %d %s | %s %d %d %d\n", s.Rank,
			strings.Join(s.Drugs, ","), strings.Join(s.Reactions, ","),
			s.Support, round12(s.Score), s.SupportType)
		for _, l := range s.Cluster.Levels {
			for _, r := range l.Rules {
				fmt.Fprintf(h, "C %d %d %d %d %d\n", r.Support, r.AntSupport,
					r.ConSupport, round12(r.Confidence), round12(r.Lift))
			}
		}
	}
}

func goldenLine(t *testing.T, seed int64, minsup int) string {
	t.Helper()
	cfg := synth.DefaultConfig("2014Q1", seed)
	cfg.Reports = goldenReports
	q, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	opts := NewOptions()
	opts.MinSupport = minsup
	opts.TopK = 0
	a, err := RunQuarter(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	fingerprintSignals(h, a.Signals)
	return fmt.Sprintf("seed=%d minsup=%d %s signals=%d",
		seed, minsup, hex.EncodeToString(h.Sum(nil)), len(a.Signals))
}

// TestGoldenFingerprint pins the pipeline's ranked output on fixed
// synthetic quarters. Mining-core optimisations must leave it
// byte-identical.
func TestGoldenFingerprint(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, seed := range []int64{1, 2, 3} {
		for _, minsup := range []int{4, 8, 16} {
			got = append(got, goldenLine(t, seed, minsup))
		}
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("ranked output changed; %s wants\n%s\ngot\n%s",
			goldenPath, strings.Join(want, "\n"), strings.Join(got, "\n"))
	}
}
