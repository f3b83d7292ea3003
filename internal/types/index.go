package types

// Index maps itemsets to dense IDs 0, 1, 2, ... in insertion order:
// open addressing with linear probing over Itemset.Hash, every hash
// match confirmed with Equal so colliding itemsets never alias. Slots
// stay at most half full. Create one with NewIndex.
type Index struct {
	slots []int32 // ID+1 per slot; 0 marks an empty slot
	sets  []Itemset
}

// NewIndex returns an Index sized to hold n itemsets without growing.
func NewIndex(n int) *Index {
	size := 8
	for size < 2*n {
		size <<= 1
	}
	return &Index{slots: make([]int32, size), sets: make([]Itemset, 0, n)}
}

// Find returns the ID of s, or -1 if s is not indexed.
func (x *Index) Find(s Itemset) int {
	id, _ := x.probe(s, s.Hash())
	return id
}

// Add indexes s unless it is already present and returns its ID and
// whether it was added. The index retains s: the caller must not
// mutate it afterwards.
func (x *Index) Add(s Itemset) (int, bool) {
	h := s.Hash()
	id, slot := x.probe(s, h)
	if id >= 0 {
		return id, false
	}
	if 2*(len(x.sets)+1) > len(x.slots) {
		x.grow()
		_, slot = x.probe(s, h)
	}
	id = len(x.sets)
	x.sets = append(x.sets, s)
	x.slots[slot] = int32(id + 1)
	return id, true
}

// probe returns s's ID and slot, or -1 and the empty slot where s
// would go.
func (x *Index) probe(s Itemset, h uint64) (id, slot int) {
	mask := uint64(len(x.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		v := x.slots[i]
		if v == 0 {
			return -1, int(i)
		}
		if id := int(v - 1); x.sets[id].Equal(s) {
			return id, int(i)
		}
	}
}

// grow doubles the slot array and reinserts every ID.
func (x *Index) grow() {
	x.slots = make([]int32, 2*len(x.slots))
	mask := uint64(len(x.slots) - 1)
	for id, s := range x.sets {
		i := s.Hash() & mask
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(id + 1)
	}
}
