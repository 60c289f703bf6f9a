package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc64"
)

// Inputs. Keys are 16 bytes and values 100 bytes, the db_bench shapes the
// paper's RedoDB figures use.
const (
	keySize   = 16
	valueSize = 100
)

// Value layout: every value describes itself, so a read can be checked
// without a shadow copy of the store.
//
//	[0:8)    crc64 of the key it was written under
//	[8:16)   writer id (the owner of the key)
//	[16:24)  writer-local sequence number of the write
//	[24:92)  filler derived from the three words above
//	[92:100) crc64 of bytes [0:92)
const (
	offKey    = 0
	offWriter = 8
	offSeq    = 16
	offFill   = 24
	offSum    = 92
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// keyOf renders key number i of a run seeded with seed: 16 hex digits of a
// seeded bijection of i, so distinct numbers give distinct keys spread over
// the hash space.
func keyOf(dst []byte, seed int64, i uint64) []byte {
	const hexDigits = "0123456789abcdef"
	x := mix64(i ^ mix64(uint64(seed)))
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hexDigits[x>>uint(shift)&0xf])
	}
	return dst
}

// makeValue writes the value of write (writer, seq) under key into dst,
// which must hold valueSize bytes.
func makeValue(dst, key []byte, writer, seq uint64) {
	keySum := crc64.Checksum(key, crcTable)
	binary.LittleEndian.PutUint64(dst[offKey:], keySum)
	binary.LittleEndian.PutUint64(dst[offWriter:], writer)
	binary.LittleEndian.PutUint64(dst[offSeq:], seq)
	x := keySum ^ writer<<48 ^ seq
	for off := offFill; off < offSum; off += 8 {
		x = mix64(x + 0x9e3779b97f4a7c15)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], x)
		copy(dst[off:offSum], w[:])
	}
	binary.LittleEndian.PutUint64(dst[offSum:], crc64.Checksum(dst[:offSum], crcTable))
}

// Verification faults.
var (
	errMissing = errors.New("missing")
	errTorn    = errors.New("torn")    // wrong length or checksum: a mix of writes
	errForeign = errors.New("foreign") // intact, but written under another key or by another writer
	errStale   = errors.New("stale")   // intact and ours, but older than an acknowledged write
)

// checkValue verifies that val is an intact value written under key by
// writer, with a sequence number in [minSeq, maxSeq]: minSeq is the last
// write acknowledged before the read began, maxSeq the last write issued.
func checkValue(key, val []byte, writer, minSeq, maxSeq uint64) error {
	if len(val) != valueSize || binary.LittleEndian.Uint64(val[offSum:]) != crc64.Checksum(val[:offSum], crcTable) {
		return fmt.Errorf("key %s: %w value (%d bytes)", key, errTorn, len(val))
	}
	if binary.LittleEndian.Uint64(val[offKey:]) != crc64.Checksum(key, crcTable) {
		return fmt.Errorf("key %s: %w value: written under another key", key, errForeign)
	}
	if w := binary.LittleEndian.Uint64(val[offWriter:]); w != writer {
		return fmt.Errorf("key %s: %w value: writer %d, owner is %d", key, errForeign, w, writer)
	}
	seq := binary.LittleEndian.Uint64(val[offSeq:])
	if seq > maxSeq {
		return fmt.Errorf("key %s: %w value: seq %d was never written (last %d)", key, errForeign, seq, maxSeq)
	}
	if seq < minSeq {
		return fmt.Errorf("key %s: %w value: seq %d, acknowledged %d", key, errStale, seq, minSeq)
	}
	return nil
}

// checkRead verifies a Get result.
func checkRead(key, val []byte, found bool, writer, minSeq, maxSeq uint64) error {
	if !found {
		return fmt.Errorf("key %s: %w", key, errMissing)
	}
	return checkValue(key, val, writer, minSeq, maxSeq)
}
