package assoc

import (
	"fmt"
	"math/rand"
	"testing"

	"maras/internal/txdb"
	"maras/internal/types"
)

// classifyByDefinition is Definitions 3.3.1–3.3.2 read literally: an
// explicit report equal to complete, else two reports whose
// intersection equals it.
func classifyByDefinition(db *txdb.DB, complete types.Itemset) SupportType {
	txs := db.Transactions()
	for _, tx := range txs {
		if tx.Items.Equal(complete) {
			return Explicit
		}
	}
	for i := range txs {
		for j := i + 1; j < len(txs); j++ {
			if txs[i].Items.Intersect(txs[j].Items).Equal(complete) {
				return Implicit
			}
		}
	}
	return Unsupported
}

// TestClassifyMatchesDefinition compares Classify with the literal
// definitions for every subset of every transaction of random tiny
// DBs.
func TestClassifyMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		dict := types.NewDictionary()
		nItems := 3 + rng.Intn(7)
		for i := 0; i < nItems; i++ {
			dict.Intern(fmt.Sprintf("i%d", i), types.DomainDrug)
		}
		db := txdb.New(dict)
		for r := 0; r < 4+rng.Intn(16); r++ {
			var tx types.Itemset
			for i := 0; i < nItems; i++ {
				if rng.Float64() < 0.45 {
					tx = append(tx, types.Item(i))
				}
			}
			db.Add(fmt.Sprintf("r%d", r), tx)
		}
		db.Freeze()
		for _, tx := range db.Transactions() {
			n := len(tx.Items)
			for mask := 1; mask < 1<<uint(n); mask++ {
				var set types.Itemset
				for i := 0; i < n; i++ {
					if mask&(1<<uint(i)) != 0 {
						set = append(set, tx.Items[i])
					}
				}
				if got, want := Classify(db, set), classifyByDefinition(db, set); got != want {
					t.Fatalf("trial %d: Classify(%v) = %v, definition gives %v", trial, set, got, want)
				}
			}
		}
	}
}
