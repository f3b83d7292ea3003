// Package txdb holds the transaction database the miners run against:
// one transaction per cleaned adverse-event report, each the union of
// the report's drug items and reaction items. Alongside the horizontal
// layout it maintains per-item posting lists (sorted transaction-ID
// lists), which give exact support counts for arbitrary itemsets by
// k-way intersection — the primitive that contextual-rule scoring
// (package mcac/rank) relies on.
package txdb

import (
	"fmt"
	"sort"

	"maras/internal/types"
)

// TID identifies a transaction (a report) within one DB, densely from 0.
type TID int32

// Transaction is one report abstracted to its itemset. Items is always
// normalized (sorted strictly increasing).
type Transaction struct {
	// ReportID is the originating report's external identifier
	// (FAERS primaryid); it lets signals link back to raw reports.
	ReportID string
	Items    types.Itemset
}

// DB is an immutable-after-Freeze transaction database.
type DB struct {
	dict     *types.Dictionary
	txs      []Transaction
	postings map[types.Item][]TID
	frozen   bool
}

// New returns an empty DB over dict.
func New(dict *types.Dictionary) *DB {
	return &DB{dict: dict, postings: make(map[types.Item][]TID)}
}

// Dict returns the dictionary the DB encodes against.
func (db *DB) Dict() *types.Dictionary { return db.dict }

// Add appends a transaction. The itemset is normalized defensively.
// Add panics after Freeze: the posting lists are shared read-only by
// then and appending would silently corrupt support counts.
func (db *DB) Add(reportID string, items types.Itemset) TID {
	if db.frozen {
		panic("txdb: Add after Freeze")
	}
	items = items.Clone().Normalize()
	tid := TID(len(db.txs))
	db.txs = append(db.txs, Transaction{ReportID: reportID, Items: items})
	for _, it := range items {
		db.postings[it] = append(db.postings[it], tid)
	}
	return tid
}

// Freeze marks the DB read-only. Posting lists are already sorted by
// construction (TIDs are appended in increasing order).
func (db *DB) Freeze() { db.frozen = true }

// Len returns the number of transactions.
func (db *DB) Len() int { return len(db.txs) }

// Tx returns the transaction with the given ID.
func (db *DB) Tx(tid TID) Transaction { return db.txs[tid] }

// Transactions returns the backing slice; callers must not mutate it.
func (db *DB) Transactions() []Transaction { return db.txs }

// Support returns |{t : set ⊆ t}|, the absolute support of set
// (Formula 2.1), computed exactly from the posting lists without
// materialising the matching TIDs. The empty set is contained in every
// transaction.
func (db *DB) Support(set types.Itemset) int {
	switch len(set) {
	case 0:
		return len(db.txs)
	case 1:
		return len(db.postings[set[0]])
	}
	n, _ := db.intersect(set, nil, false, nil)
	return n
}

// TIDs returns the sorted transaction IDs containing every item of
// set, appended into buf (reset first) to let hot callers avoid
// allocation. For the empty set it returns all TIDs.
func (db *DB) TIDs(set types.Itemset, buf []TID) []TID {
	buf = buf[:0]
	if len(set) == 0 {
		for i := range db.txs {
			buf = append(buf, TID(i))
		}
		return buf
	}
	_, buf = db.intersect(set, buf, true, nil)
	return buf
}

// intersect counts the transactions containing every item of set (at
// least one item), appending their TIDs to buf when collect is set.
// It walks the rarest item's posting list and probes the others,
// rarest first: with one word read where bitmap (if non-nil) gives a
// bitmap, else by galloping forward through the posting list.
func (db *DB) intersect(set types.Itemset, buf []TID, collect bool, bitmap func(types.Item) []uint64) (int, []TID) {
	type probe struct {
		list []TID
		bits []uint64
	}
	var arr [16]probe // sets are short: keeps the probes off the heap
	probes := arr[:0]
	for _, it := range set {
		pr := probe{list: db.postings[it]}
		if len(pr.list) == 0 {
			return 0, buf
		}
		if bitmap != nil {
			pr.bits = bitmap(it)
		}
		probes = append(probes, pr)
		for k := len(probes) - 1; k > 0 && len(probes[k].list) < len(probes[k-1].list); k-- {
			probes[k], probes[k-1] = probes[k-1], probes[k]
		}
	}
	n := 0
next:
	for _, v := range probes[0].list {
		for k := 1; k < len(probes); k++ {
			pr := &probes[k]
			if pr.bits != nil {
				if pr.bits[v>>6]&(1<<(v&63)) == 0 {
					continue next
				}
				continue
			}
			j := gallop(pr.list, 0, v)
			if j == len(pr.list) {
				break next
			}
			pr.list = pr.list[j:]
			if pr.list[0] != v {
				continue next
			}
		}
		n++
		if collect {
			buf = append(buf, v)
		}
	}
	return n, buf
}

// gallop returns the smallest index i >= start with l[i] >= v, by
// exponential probing followed by binary search within the bracket.
func gallop(l []TID, start int, v TID) int {
	if start >= len(l) || l[start] >= v {
		return start
	}
	step := 1
	lo := start
	hi := start + step
	for hi < len(l) && l[hi] < v {
		lo = hi
		step <<= 1
		hi = lo + step
	}
	if hi > len(l) {
		hi = len(l)
	}
	// Invariant: l[lo] < v, and (hi == len(l) or l[hi] >= v).
	return lo + 1 + sort.Search(hi-lo-1, func(i int) bool { return l[lo+1+i] >= v })
}

// Stats summarizes a DB the way Table 5.1 of the paper does.
type Stats struct {
	Reports   int // transactions
	Drugs     int // distinct drug items occurring at least once
	Reactions int // distinct reaction items occurring at least once
	AvgDrugs  float64
	AvgReacs  float64
}

// Stats scans the DB and reports Table 5.1-style dataset statistics.
func (db *DB) Stats() Stats {
	var s Stats
	s.Reports = len(db.txs)
	var totDrug, totReac int
	for it, p := range db.postings {
		if len(p) == 0 {
			continue
		}
		if db.dict.IsDrug(it) {
			s.Drugs++
			totDrug += len(p)
		} else {
			s.Reactions++
			totReac += len(p)
		}
	}
	if s.Reports > 0 {
		s.AvgDrugs = float64(totDrug) / float64(s.Reports)
		s.AvgReacs = float64(totReac) / float64(s.Reports)
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("reports=%d drugs=%d reactions=%d avgDrugs=%.2f avgReacs=%.2f",
		s.Reports, s.Drugs, s.Reactions, s.AvgDrugs, s.AvgReacs)
}
