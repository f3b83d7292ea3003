package fpgrowth

import (
	"math/rand"
	"sort"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// quadraticFilterClosed is the pairwise-containment definition of
// closedness within sets (Definition 3.4.1 restricted to the input):
// keep S unless some other member is a proper superset of S with
// equal support. It is the reference the linear FilterClosed must
// match.
func quadraticFilterClosed(sets []FrequentSet) map[string]int {
	out := map[string]int{}
	for _, s := range sets {
		closed := true
		for _, t := range sets {
			if t.Support == s.Support && t.Items.ProperSupersetOf(s.Items) {
				closed = false
				break
			}
		}
		if closed {
			out[s.Items.Key()] = s.Support
		}
	}
	return out
}

// randomTxs draws nTx transactions over at most nItems item IDs, none
// empty.
func randomTxs(rng *rand.Rand, nItems, nTx int, density float64) [][]int {
	txs := make([][]int, nTx)
	for i := range txs {
		for id := 0; id < nItems; id++ {
			if rng.Float64() < density {
				txs[i] = append(txs[i], id)
			}
		}
		if len(txs[i]) == 0 {
			txs[i] = []int{rng.Intn(nItems)}
		}
	}
	return txs
}

func TestFilterClosedMatchesQuadraticReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		db := buildDB(t, randomTxs(rng, 3+rng.Intn(10), 5+rng.Intn(40), 0.2+0.3*rng.Float64()))
		minsup := 1 + rng.Intn(3)
		for _, maxLen := range []int{0, 2, 3} {
			sets := Mine(db, Options{MinSupport: minsup, MaxLen: maxLen})
			got := map[string]int{}
			for _, fs := range FilterClosed(sets) {
				if _, dup := got[fs.Items.Key()]; dup {
					t.Fatalf("trial %d maxLen %d: %v returned twice", trial, maxLen, fs.Items)
				}
				got[fs.Items.Key()] = fs.Support
			}
			want := quadraticFilterClosed(sets)
			if len(got) != len(want) {
				t.Fatalf("trial %d (minsup=%d maxLen=%d): %d closed sets, want %d\n got=%v\nwant=%v",
					trial, minsup, maxLen, len(got), len(want), got, want)
			}
			for k, sup := range want {
				if s, ok := got[k]; !ok || s != sup {
					t.Fatalf("trial %d maxLen %d: closed set %s missing or support %d, want %d",
						trial, maxLen, k, s, sup)
				}
			}
		}
	}
}

// TestFilterClosedKeepsSetsAtTheCap pins the MaxLen (core MaxItems)
// semantics: a set at the length cap has no longer members to be
// compared with, so it is kept even though the DB holds a longer
// superset of equal support and the set is not closed in the DB.
func TestFilterClosedKeepsSetsAtTheCap(t *testing.T) {
	db := buildDB(t, [][]int{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 4}})
	got := map[string]int{}
	for _, fs := range FilterClosed(Mine(db, Options{MinSupport: 2, MaxLen: 2})) {
		got[fs.Items.Key()] = fs.Support
	}
	want := map[string]int{
		"1":   4, // {1} has support 4, more than any superset
		"1,2": 3, // at the cap: {1,2,3} is not mined, so {1,2} stays
		"1,3": 3,
		"2,3": 3,
	}
	if len(got) != len(want) {
		t.Fatalf("closed sets under MaxLen 2 = %v, want %v", got, want)
	}
	for k, sup := range want {
		if got[k] != sup {
			t.Fatalf("closed sets under MaxLen 2 = %v, want %v", got, want)
		}
	}
	if _, ok := bruteClosed(db, 2)["1,2"]; ok {
		t.Fatal("{1,2} is closed in the DB; the test no longer exercises the cap")
	}
}

func TestFilterClosedOrderIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	db := buildDB(t, randomTxs(rng, 12, 60, 0.35))
	sets := Mine(db, Options{MinSupport: 2})
	first := FilterClosed(sets)
	for rep := 0; rep < 5; rep++ {
		again := FilterClosed(sets)
		if len(again) != len(first) {
			t.Fatalf("repeat %d: %d sets, first call %d", rep, len(again), len(first))
		}
		for i := range again {
			if !again[i].Items.Equal(first[i].Items) || again[i].Support != first[i].Support {
				t.Fatalf("repeat %d: position %d holds %v, first call %v", rep, i, again[i], first[i])
			}
		}
	}
	// Survivors keep their input order.
	pos := map[string]int{}
	for i, fs := range sets {
		pos[fs.Items.Key()] = i
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool {
		return pos[first[i].Items.Key()] < pos[first[j].Items.Key()]
	}) {
		t.Fatal("FilterClosed reordered its input")
	}
}

func TestFilterClosedRejectsRepeatedItemsets(t *testing.T) {
	db := buildDB(t, [][]int{{1, 2}, {1, 2}})
	sets := Mine(db, Options{MinSupport: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("FilterClosed accepted a repeated itemset")
		}
	}()
	FilterClosed(append(sets, sets[0]))
}

func asMap(sets []FrequentSet) map[string]int {
	m := make(map[string]int, len(sets))
	for _, fs := range sets {
		m[fs.Items.Key()] = fs.Support
	}
	return m
}

func TestMineClosedKnownExample(t *testing.T) {
	db := buildDB(t, [][]int{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
	got := asMap(MineClosed(db, Options{MinSupport: 2}))
	want := bruteClosed(db, 2)
	if len(got) != len(want) {
		t.Fatalf("%d closed sets, want %d\n got=%v\nwant=%v", len(got), len(want), got, want)
	}
	for k, sup := range want {
		if got[k] != sup {
			t.Errorf("set %s: support %d, want %d", k, got[k], sup)
		}
	}
}

// Dense data: every transaction shares a common pair, which is the
// closure of each single item of it and must be emitted once.
func TestMineClosedCommonItems(t *testing.T) {
	db := buildDB(t, [][]int{{0, 1, 2}, {0, 1, 3}, {0, 1, 4}})
	sets := MineClosed(db, Options{MinSupport: 1})
	got := asMap(sets)
	if got["0,1"] != 3 {
		t.Errorf("common pair {0,1} support = %d, want 3 (got %v)", got["0,1"], got)
	}
	if _, ok := got["0"]; ok {
		t.Errorf("{0} is not closed (its closure is {0,1}) but was kept: %v", got)
	}
	if len(got) != len(sets) {
		t.Error("duplicate closed sets emitted")
	}
}

func TestMineClosedEmptyAndDegenerate(t *testing.T) {
	db := txdb.New(types.NewDictionary())
	db.Freeze()
	if got := MineClosed(db, Options{MinSupport: 1}); len(got) != 0 {
		t.Errorf("empty DB mined %d", len(got))
	}
	sets := MineClosed(buildDB(t, [][]int{{7}}), Options{MinSupport: 1})
	if len(sets) != 1 || sets[0].Items.Key() != "7" {
		t.Errorf("single-item DB = %v", sets)
	}
}

// A larger random DB than TestMineClosedDeterministicOrder: repeated
// runs agree position by position, sorted by support descending.
func TestMineClosedOrderingDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	db := buildDB(t, randomTxs(rng, 10, 50, 0.4))
	a := MineClosed(db, Options{MinSupport: 2})
	if len(a) == 0 {
		t.Fatal("no closed sets mined; the test exercises nothing")
	}
	for rep := 0; rep < 3; rep++ {
		b := MineClosed(db, Options{MinSupport: 2})
		if len(b) != len(a) {
			t.Fatalf("repeat %d: %d sets, first run %d", rep, len(b), len(a))
		}
		for i := range a {
			if !a[i].Items.Equal(b[i].Items) || a[i].Support != b[i].Support {
				t.Fatalf("repeat %d: position %d holds %v, first run %v", rep, i, b[i], a[i])
			}
		}
	}
	for i := 1; i < len(a); i++ {
		if a[i].Support > a[i-1].Support {
			t.Fatalf("not sorted by support desc at %d", i)
		}
	}
}
