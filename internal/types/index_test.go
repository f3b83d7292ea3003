package types

import "testing"

func TestIndexAddFind(t *testing.T) {
	x := NewIndex(0)
	sets := []Itemset{{1}, {1, 2}, {2, 1 << 20}, {3, 4, 5}, {}}
	for i, s := range sets {
		id, added := x.Add(s)
		if !added || id != i {
			t.Fatalf("Add(%v) = %d, %v; want %d, true", s, id, added, i)
		}
	}
	for i, s := range sets {
		if id, added := x.Add(s.Clone()); added || id != i {
			t.Fatalf("re-Add(%v) = %d, %v; want %d, false", s, id, added, i)
		}
		if id := x.Find(s.Clone()); id != i {
			t.Fatalf("Find(%v) = %d, want %d", s, id, i)
		}
	}
	if id := x.Find(Itemset{2}); id != -1 {
		t.Fatalf("Find of an absent set = %d, want -1", id)
	}
}

// TestIndexGrows adds far more sets than the initial capacity and
// checks every one is still found under its ID.
func TestIndexGrows(t *testing.T) {
	x := NewIndex(2)
	var sets []Itemset
	for a := Item(0); a < 40; a++ {
		for b := a + 1; b < 40; b++ {
			sets = append(sets, Itemset{a, b})
		}
	}
	for i, s := range sets {
		if id, added := x.Add(s); !added || id != i {
			t.Fatalf("Add(%v) = %d, %v; want %d, true", s, id, added, i)
		}
	}
	for i, s := range sets {
		if id := x.Find(s); id != i {
			t.Fatalf("Find(%v) = %d, want %d", s, id, i)
		}
	}
	if id := x.Find(Itemset{0, 40}); id != -1 {
		t.Fatalf("Find of an absent set = %d, want -1", id)
	}
}
