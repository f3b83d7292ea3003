package main

import (
	"reflect"
	"testing"

	"maras/internal/synth"
)

func TestDrawQuarterIsSeededAndKeepsCasesWhole(t *testing.T) {
	cfg := synth.DefaultConfig("2014Q1", 3)
	cfg.Reports = 400
	cfg.DuplicateRate = 0.2 // plenty of multi-version cases
	pool, _, err := synth.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a := drawQuarter(pool, "2015Q2", 7, 100)
	b := drawQuarter(pool, "2015Q2", 7, 100)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed drew different quarters")
	}
	if c := drawQuarter(pool, "2015Q2", 8, 100); reflect.DeepEqual(a.Demos, c.Demos) {
		t.Error("different seeds drew the same quarter")
	}
	if a.Label != "2015Q2" {
		t.Errorf("label %q", a.Label)
	}
	cases := map[string]bool{}
	ids := map[string]bool{}
	for _, d := range a.Demos {
		cases[d.CaseID] = true
		ids[d.PrimaryID] = true
	}
	if len(cases) != 100 {
		t.Errorf("%d cases, want 100", len(cases))
	}
	// Every version of a drawn case comes along, with all its rows.
	for _, d := range pool.Demos {
		if cases[d.CaseID] && !ids[d.PrimaryID] {
			t.Errorf("case %s drawn without its report %s", d.CaseID, d.PrimaryID)
		}
	}
	want := 0
	for _, d := range pool.Drugs {
		if ids[d.PrimaryID] {
			want++
		}
	}
	if len(a.Drugs) != want {
		t.Errorf("%d drug rows, want %d", len(a.Drugs), want)
	}
}

func TestRoundRobinShares(t *testing.T) {
	r := newRoundRobin(2, 1, 20, 35, 15, 22, 5)
	counts := make([]int, 7)
	for i := 0; i < 100; i++ {
		counts[r.next()]++
	}
	if !reflect.DeepEqual(counts, []int{2, 1, 20, 35, 15, 22, 5}) {
		t.Errorf("one cycle of 100 gave %v", counts)
	}
	// The heavy, rare entries are spread out, not bunched.
	r = newRoundRobin(2, 98)
	var at []int
	for i := 0; i < 100; i++ {
		if r.next() == 0 {
			at = append(at, i)
		}
	}
	if len(at) != 2 || at[1]-at[0] != 50 {
		t.Errorf("rare entry at %v, want 50 apart", at)
	}
}
