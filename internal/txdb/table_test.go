package txdb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"maras/internal/types"
)

// randomDB draws a DB of nTx transactions over nItems items (≤ 12, so
// every subset of a transaction can be enumerated).
func randomDB(rng *rand.Rand, nItems, nTx int) *DB {
	dict := types.NewDictionary()
	items := make([]types.Item, nItems)
	for i := range items {
		dom := types.DomainDrug
		if i >= nItems/2 {
			dom = types.DomainReaction
		}
		items[i] = dict.Intern(fmt.Sprintf("i%d", i), dom)
	}
	db := New(dict)
	for r := 0; r < nTx; r++ {
		var tx types.Itemset
		for _, it := range items {
			if rng.Float64() < 0.4 {
				tx = append(tx, it)
			}
		}
		db.Add(fmt.Sprintf("r%d", r), tx.Normalize())
	}
	db.Freeze()
	return db
}

// TestSupportTableMatchesTIDs checks the table's supports and TID
// lists against DB.TIDs for every subset of every transaction, asking
// each twice (miss, then hit) and starting from a capacity of one so
// the index grows many times.
func TestSupportTableMatchesTIDs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		db := randomDB(rng, 2+rng.Intn(11), 10+rng.Intn(40))
		table := NewSupportTable(db, 1)
		buf := make(types.Itemset, 0, 12)
		for pass := 0; pass < 2; pass++ {
			for _, tx := range db.Transactions() {
				n := len(tx.Items)
				for mask := 0; mask < 1<<uint(n); mask++ {
					buf = buf[:0]
					for i := 0; i < n; i++ {
						if mask&(1<<uint(i)) != 0 {
							buf = append(buf, tx.Items[i])
						}
					}
					tids := db.TIDs(buf, nil)
					want := len(tids)
					if got := table.TIDs(buf, nil); !slices.Equal(got, tids) {
						t.Fatalf("trial %d: table.TIDs(%v) = %v, db.TIDs %v", trial, buf, got, tids)
					}
					if got := table.Support(buf); got != want {
						t.Fatalf("trial %d pass %d: table.Support(%v) = %d, TIDs give %d", trial, pass, buf, got, want)
					}
					if got := db.Support(buf); got != want {
						t.Fatalf("trial %d: db.Support(%v) = %d, TIDs give %d", trial, buf, got, want)
					}
				}
			}
		}
		if table.Len() != db.Len() {
			t.Fatalf("table.Len() = %d, db.Len() = %d", table.Len(), db.Len())
		}
	}
}

// TestSupportLongSet covers sets longer than the inline list arrays
// intersect keeps on the stack.
func TestSupportLongSet(t *testing.T) {
	dict := types.NewDictionary()
	var all types.Itemset
	for i := 0; i < 20; i++ {
		all = append(all, dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug))
	}
	db := New(dict)
	db.Add("full1", all)
	db.Add("short", all[:10])
	db.Add("full2", all)
	db.Freeze()
	if got := db.Support(all); got != 2 {
		t.Fatalf("Support(20 items) = %d, want 2", got)
	}
	if got := db.TIDs(all, nil); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("TIDs(20 items) = %v, want [0 2]", got)
	}
	if got := NewSupportTable(db, 0).Support(all); got != 2 {
		t.Fatalf("table.Support(20 items) = %d, want 2", got)
	}
}

// TestSupportTableDenseAndSparse covers both ways a posting list is
// probed: through a bitmap for items in at least 1/32 of the
// transactions, by galloping search for rarer ones, and both mixed.
func TestSupportTableDenseAndSparse(t *testing.T) {
	dict := types.NewDictionary()
	rare := dict.Intern("rare", types.DomainDrug)
	sparse := dict.Intern("sparse", types.DomainDrug)
	common := dict.Intern("common", types.DomainReaction)
	db := New(dict)
	for i := 0; i < 100; i++ {
		tx := types.Itemset{}
		if i == 70 {
			tx = append(tx, rare)
		}
		if i == 70 || i == 90 {
			tx = append(tx, sparse)
		}
		if i%3 != 2 {
			tx = append(tx, common)
		}
		db.Add(fmt.Sprintf("r%d", i), tx)
	}
	db.Freeze()
	table := NewSupportTable(db, 0)
	for _, set := range []types.Itemset{
		types.NewItemset(rare, common),         // common is dense: bitmap
		types.NewItemset(sparse, common),       // past the first bitmap word
		types.NewItemset(rare, sparse),         // sparse has 2 of 100: gallop
		types.NewItemset(rare, sparse, common), // both
	} {
		tids := db.TIDs(set, nil)
		if got := table.Support(set); got != len(tids) {
			t.Errorf("table.Support(%v) = %d, want %d", set, got, len(tids))
		}
		if got := table.TIDs(set, nil); !slices.Equal(got, tids) {
			t.Errorf("table.TIDs(%v) = %v, want %v", set, got, tids)
		}
	}
	if table.bitmap(common) == nil || table.bitmap(sparse) != nil {
		t.Fatal("bitmaps: want one for the dense item only")
	}
}
