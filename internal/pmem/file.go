package pmem

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
	"io"
	"os"
	"path/filepath"
)

// File persistence: a Pool's *persisted image* can be written to and
// reloaded from a file, which is how the examples survive process restarts —
// the moral equivalent of the real system's DAX-mapped device file. Only
// durable state travels: in Strict mode the shadow image (what a power
// failure would leave), in Direct mode the live image (everything).
//
// Snapshot format v2 (little-endian 64-bit words):
//
//	word 0      magic "pmem-v02"
//	word 1      format version (snapshotVersion)
//	word 2..5   mode, regionWords, nRegions, nHeaders
//	...         nHeaders header slots
//	...         nRegions × regionWords data words
//	last word   CRC-64/ECMA over every preceding byte
//
// The trailing checksum covers the geometry, the header slots and the data,
// so a bit-rotted or hand-edited snapshot is rejected with
// ErrCorruptSnapshot instead of being loaded as a silently wrong pool.

// fileMagic identifies the snapshot format.
const fileMagic = 0x706d656d2d763032 // "pmem-v02"

// snapshotVersion is bumped whenever the layout after the magic changes.
const snapshotVersion = 2

// ErrCorruptSnapshot reports a snapshot whose content fails validation: bad
// magic, unsupported version, implausible geometry or checksum mismatch.
var ErrCorruptSnapshot = errors.New("pmem: corrupt snapshot")

// ErrTruncatedSnapshot reports a snapshot file shorter than its geometry
// promises (an interrupted write or a truncated copy).
var ErrTruncatedSnapshot = errors.New("pmem: truncated snapshot")

// WriteFile atomically serializes the pool's persisted image to path. The
// pool must be quiescent (no in-flight transactions).
func (p *Pool) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("pmem: snapshot: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	sum := crc64.New(crcTable)
	out := io.MultiWriter(w, sum)
	words := p.data
	if p.mode == Strict {
		words = p.shadow
	}
	hdr := []uint64{
		fileMagic,
		snapshotVersion,
		uint64(p.mode),
		p.regionWords,
		uint64(len(p.regions)),
		uint64(len(p.headers)),
	}
	var buf [8]byte
	for _, v := range hdr {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := out.Write(buf[:]); err != nil {
			return fail(f, tmp, err)
		}
	}
	for i := range p.headers {
		v := p.headers[i].Load()
		if p.mode == Strict {
			v = p.shadowHdr[i].Load()
		}
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := out.Write(buf[:]); err != nil {
			return fail(f, tmp, err)
		}
	}
	for _, v := range words {
		binary.LittleEndian.PutUint64(buf[:], v)
		if _, err := out.Write(buf[:]); err != nil {
			return fail(f, tmp, err)
		}
	}
	binary.LittleEndian.PutUint64(buf[:], sum.Sum64())
	if _, err := w.Write(buf[:]); err != nil {
		return fail(f, tmp, err)
	}
	if err := w.Flush(); err != nil {
		return fail(f, tmp, err)
	}
	if err := f.Sync(); err != nil {
		return fail(f, tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("pmem: snapshot: %w", err)
	}
	return os.Rename(tmp, path)
}

func fail(f *os.File, tmp string, err error) error {
	f.Close()
	os.Remove(tmp)
	return fmt.Errorf("pmem: snapshot: %w", err)
}

// ReadFile reconstructs a Pool from a snapshot written by WriteFile. The
// returned pool behaves as if freshly re-mapped after a restart: the loaded
// image is both the live and (in Strict mode) the persisted content.
//
// A short file fails with an error wrapping ErrTruncatedSnapshot; wrong
// magic, an unknown version, implausible geometry or a checksum mismatch
// fail with an error wrapping ErrCorruptSnapshot. ReadFile never panics and
// never returns a partially populated pool.
func ReadFile(path string) (*Pool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pmem: load snapshot: %w", err)
	}
	defer f.Close()
	sum := crc64.New(crcTable)
	r := io.TeeReader(bufio.NewReaderSize(f, 1<<20), sum)
	readWord := func() (uint64, error) {
		var buf [8]byte
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return 0, ErrTruncatedSnapshot
			}
			return 0, err
		}
		return binary.LittleEndian.Uint64(buf[:]), nil
	}
	magic, err := readWord()
	if err != nil {
		return nil, fmt.Errorf("pmem: load snapshot: %w", err)
	}
	if magic != fileMagic {
		return nil, fmt.Errorf("pmem: load snapshot: bad magic %#x: %w", magic, ErrCorruptSnapshot)
	}
	version, err := readWord()
	if err != nil {
		return nil, fmt.Errorf("pmem: load snapshot: %w", err)
	}
	if version != snapshotVersion {
		return nil, fmt.Errorf("pmem: load snapshot: unsupported version %d: %w", version, ErrCorruptSnapshot)
	}
	var geom [4]uint64 // mode, regionWords, nRegions, nHeaders
	for i := range geom {
		if geom[i], err = readWord(); err != nil {
			return nil, fmt.Errorf("pmem: load snapshot: %w", err)
		}
	}
	modeW, regionWords, nRegions, nHeaders := geom[0], geom[1], geom[2], geom[3]
	if modeW > uint64(Strict) || nRegions == 0 || nRegions > 1<<16 ||
		regionWords == 0 || regionWords > 1<<32 || nHeaders > 1<<16 ||
		regionWords%WordsPerLine != 0 {
		return nil, fmt.Errorf("pmem: load snapshot: implausible geometry: %w", ErrCorruptSnapshot)
	}
	// Before allocating anything, the file must be exactly as long as the
	// geometry promises: 6 header words, the slots, the data, the checksum.
	// This turns a crafted or corrupted geometry into a typed error instead
	// of a doomed multi-gigabyte allocation.
	if fi, err := f.Stat(); err != nil {
		return nil, fmt.Errorf("pmem: load snapshot: %w", err)
	} else if want := int64(6+nHeaders+nRegions*regionWords+1) * 8; fi.Size() < want {
		return nil, fmt.Errorf("pmem: load snapshot: %d bytes, need %d: %w", fi.Size(), want, ErrTruncatedSnapshot)
	} else if fi.Size() > want {
		return nil, fmt.Errorf("pmem: load snapshot: %d trailing bytes: %w", fi.Size()-want, ErrCorruptSnapshot)
	}
	p := New(Config{
		Mode:        Mode(modeW),
		RegionWords: regionWords,
		Regions:     int(nRegions),
		HeaderSlots: int(nHeaders),
	})
	for i := 0; i < int(nHeaders); i++ {
		v, err := readWord()
		if err != nil {
			return nil, fmt.Errorf("pmem: load snapshot: %w", err)
		}
		p.headers[i].Store(v)
		if p.mode == Strict {
			p.shadowHdr[i].Store(v)
		}
	}
	for w := range p.data {
		v, err := readWord()
		if err != nil {
			return nil, fmt.Errorf("pmem: load snapshot: %w", err)
		}
		p.data[w] = v
		if p.mode == Strict {
			p.shadow[w] = v
		}
	}
	want := sum.Sum64() // checksum of everything read so far
	got, err := readWord()
	if err != nil {
		return nil, fmt.Errorf("pmem: load snapshot: %w", err)
	}
	if got != want {
		return nil, fmt.Errorf("pmem: load snapshot: checksum mismatch: %w", ErrCorruptSnapshot)
	}
	return p, nil
}

// groupFile names member pool i's snapshot inside a group directory.
func groupFile(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("pool%d.pmem", i))
}

// WriteDir snapshots every member pool of the quiescent group into dir
// (created if missing), pool i as pool<i>.pmem in WriteFile's format. Each
// file is replaced atomically, but the set is not: a caller whose pools can
// change independently must not crash between files.
func (g *Group) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("pmem: snapshot: %w", err)
	}
	for i, p := range g.pools {
		if err := p.WriteFile(groupFile(dir, i)); err != nil {
			return err
		}
	}
	return nil
}

// ReadGroupDir loads a group saved by WriteDir: pool0.pmem, pool1.pmem, …
// up to the first missing file. A directory with no pool0.pmem fails with
// an error wrapping os.ErrNotExist.
func ReadGroupDir(dir string) (*Group, error) {
	var pools []*Pool
	for i := 0; ; i++ {
		p, err := ReadFile(groupFile(dir, i))
		if errors.Is(err, os.ErrNotExist) && i > 0 {
			return NewGroup(pools...), nil
		}
		if err != nil {
			return nil, err
		}
		pools = append(pools, p)
	}
}
