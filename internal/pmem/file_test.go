package pmem

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestSnapshotRoundTripDirect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.pmem")
	p := New(Config{Mode: Direct, RegionWords: 128, Regions: 2, HeaderSlots: 4})
	p.Region(0).Store(5, 42)
	p.Region(1).Store(7, 99)
	p.HeaderStore(1, 1234)
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Regions() != 2 || q.RegionWords() != 128 {
		t.Fatalf("geometry lost: %d regions × %d words", q.Regions(), q.RegionWords())
	}
	if got := q.Region(0).Load(5); got != 42 {
		t.Fatalf("region 0 word 5 = %d", got)
	}
	if got := q.Region(1).Load(7); got != 99 {
		t.Fatalf("region 1 word 7 = %d", got)
	}
	if got := q.HeaderLoad(1); got != 1234 {
		t.Fatalf("header 1 = %d", got)
	}
}

func TestSnapshotStrictPersistsOnlyDurableState(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.pmem")
	p := New(Config{Mode: Strict, RegionWords: 64, Regions: 1})
	r := p.Region(0)
	r.Store(1, 11)
	r.PWB(1)
	r.PFence()     // durable
	r.Store(2, 22) // volatile only
	p.HeaderStore(0, 7)
	p.PWBHeader(0)
	p.PSync()
	p.HeaderStore(0, 8) // volatile only
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	q, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Region(0).Load(1); got != 11 {
		t.Fatalf("durable word lost: %d", got)
	}
	if got := q.Region(0).Load(2); got != 0 {
		t.Fatalf("volatile word survived the snapshot: %d", got)
	}
	if got := q.HeaderLoad(0); got != 7 {
		t.Fatalf("header = %d, want the durable 7", got)
	}
	// The loaded pool keeps Strict semantics.
	q.Region(0).Store(3, 33)
	q.Crash(CrashConservative, nil)
	if got := q.Region(0).Load(3); got != 0 {
		t.Fatal("loaded pool lost Strict semantics")
	}
	if got := q.Region(0).Load(1); got != 11 {
		t.Fatal("loaded pool lost the snapshot content on crash")
	}
}

func TestSnapshotRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "junk")
	if err := os.WriteFile(path, []byte("not a pool"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	if _, err := ReadFile(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestSnapshotTruncatedFails(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.pmem")
	p := New(Config{Mode: Direct, RegionWords: 256, Regions: 2})
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
}

// TestSnapshotTypedErrors damages a valid snapshot in each characteristic
// way and asserts ReadFile reports the matching sentinel, so callers can
// distinguish "partial write, retry the copy" from "the medium lied".
func TestSnapshotTypedErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "pool.pmem")
	p := New(Config{Mode: Strict, RegionWords: 128, Regions: 2, HeaderSlots: 4})
	r := p.Region(0)
	r.Store(9, 1234)
	r.PWB(9)
	r.PFence()
	if err := p.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func([]byte) []byte
		want   error
	}{
		{"truncated header", func(b []byte) []byte { return b[:16] }, ErrTruncatedSnapshot},
		{"truncated body", func(b []byte) []byte { return b[:len(b)-24] }, ErrTruncatedSnapshot},
		{"missing checksum", func(b []byte) []byte { return b[:len(b)-8] }, ErrTruncatedSnapshot},
		{"empty file", func(b []byte) []byte { return nil }, ErrTruncatedSnapshot},
		{"bit flip in data", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x10
			return c
		}, ErrCorruptSnapshot},
		{"bit flip in checksum", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 1
			return c
		}, ErrCorruptSnapshot},
		{"wrong magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[0:8], 0x6465616462656566)
			return c
		}, ErrCorruptSnapshot},
		{"future version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			binary.LittleEndian.PutUint64(c[8:16], 99)
			return c
		}, ErrCorruptSnapshot},
		{"trailing bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0, 0, 0, 0, 0, 0, 0, 0) }, ErrCorruptSnapshot},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, tc.mutate(good), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadFile(path)
			if !errors.Is(err, tc.want) {
				t.Fatalf("ReadFile error = %v, want %v", err, tc.want)
			}
		})
	}
	// The pristine bytes still load, and carry the durable word.
	if err := os.WriteFile(path, good, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Region(0).Load(9); got != 1234 {
		t.Fatalf("durable word = %d, want 1234", got)
	}
}

func TestGroupDirRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := ReadGroupDir(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing directory: err = %v, want os.ErrNotExist", err)
	}
	g := NewGroup(
		New(Config{Mode: Direct, RegionWords: 128, Regions: 1}),
		New(Config{Mode: Direct, RegionWords: 256, Regions: 3}),
	)
	g.Pool(0).Region(0).Store(3, 11)
	g.Pool(1).Region(2).Store(9, 22)
	if err := g.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	h, err := ReadGroupDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if h.Len() != 2 || h.Pool(1).Regions() != 3 || h.Pool(1).RegionWords() != 256 {
		t.Fatalf("group geometry lost: %d pools", h.Len())
	}
	if a, b := h.Pool(0).Region(0).Load(3), h.Pool(1).Region(2).Load(9); a != 11 || b != 22 {
		t.Fatalf("group contents lost: %d, %d", a, b)
	}
}
