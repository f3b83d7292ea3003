package txdb

import "maras/internal/types"

// SupportTable memoises DB.Support, keyed by a types.Index, for one
// call's burst of repeated queries (such as every cluster's 2^n−2
// contextual rules). Create one per call and drop it on return, so
// nothing it holds outlives the call. It is not safe for concurrent use.
type SupportTable struct {
	db      *DB
	index   *types.Index
	support []int // by index ID
	bits    map[types.Item][]uint64
}

// NewSupportTable returns an empty table over db sized for about n
// distinct itemsets; it grows past n as needed.
func NewSupportTable(db *DB, n int) *SupportTable {
	return &SupportTable{db: db, index: types.NewIndex(n), bits: make(map[types.Item][]uint64)}
}

// Len returns the number of transactions in the underlying DB.
func (t *SupportTable) Len() int { return t.db.Len() }

// Support returns the exact support of set. Sets of fewer than two
// items go straight to the DB, which reads them off a posting-list
// length. set may be a scratch buffer: the table keeps a copy.
func (t *SupportTable) Support(set types.Itemset) int {
	if len(set) < 2 {
		return t.db.Support(set)
	}
	if id := t.index.Find(set); id >= 0 {
		return t.support[id]
	}
	sup, _ := t.db.intersect(set, nil, false, t.bitmap)
	t.index.Add(set.Clone())
	t.support = append(t.support, sup)
	return sup
}

// TIDs is DB.TIDs probing through the table's bitmaps. TID lists are
// not remembered.
func (t *SupportTable) TIDs(set types.Itemset, buf []TID) []TID {
	if len(set) < 2 {
		return t.db.TIDs(set, buf)
	}
	_, buf = t.db.intersect(set, buf[:0], true, t.bitmap)
	return buf
}

// bitmap returns the transactions containing it as a bitmap, built on
// first use. Items in under 1/32 of the transactions get none (nil),
// so no bitmap is larger than the posting list it mirrors.
func (t *SupportTable) bitmap(it types.Item) []uint64 {
	if b, ok := t.bits[it]; ok {
		return b
	}
	var b []uint64
	if p := t.db.postings[it]; 32*len(p) >= len(t.db.txs) {
		b = make([]uint64, (len(t.db.txs)+63)/64)
		for _, tid := range p {
			b[tid>>6] |= 1 << (tid & 63)
		}
	}
	t.bits[it] = b
	return b
}
