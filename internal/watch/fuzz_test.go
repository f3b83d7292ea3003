package watch

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// FuzzLoadFile throws arbitrary bytes at the watchlist snapshot
// reader. The contract under fuzz: LoadFile never panics, and every
// failure is one of the three typed errors (ErrBadMagic, ErrVersion,
// ErrCorrupt). Seeds cover a valid snapshot, a re-sealed one from a
// newer format version, truncations, a CRC-breaking bit flip, and
// degenerate prefixes.
func FuzzLoadFile(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.mrwl")
	lists := []*Watchlist{
		{
			ID: "wl-1", User: "alice", Name: "bleeding",
			Drugs: []string{"ASPIRIN", "WARFARIN"}, Reactions: []string{"HAEMORRHAGE"},
			MinScore: 0.5, MinSupport: 10, SeverityFloor: "severe",
			RareOnly: true, CreatedAt: time.UnixMilli(1700000000123).UTC(),
		},
		{ID: "wl-2", User: "bob", Reactions: []string{"RASH"}, UnexpectedOnly: true},
	}
	if err := SaveFile(path, lists); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	newer := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint16(newer[4:], wlVersion+1)
	binary.LittleEndian.PutUint32(newer[len(newer)-4:], crc32.ChecksumIEEE(newer[:len(newer)-4]))
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x40

	f.Add(valid)
	f.Add(newer)
	f.Add(flipped)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte{})
	f.Add([]byte("MRWL"))
	f.Add([]byte("not a watchlist snapshot"))

	// Inputs run one at a time per fuzzing process, so each process
	// can reuse one file instead of a directory per input.
	target := filepath.Join(f.TempDir(), "fuzz.mrwl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(target, data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(target)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped load error: %v", err)
			}
			return
		}
		for i, w := range got {
			if w == nil {
				t.Fatalf("list %d decoded as nil", i)
			}
		}
	})
}
