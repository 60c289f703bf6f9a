package main

import (
	"errors"
	"testing"
)

func TestKeysAreDistinctAndSized(t *testing.T) {
	seen := make(map[string]bool)
	for i := uint64(0); i < 10_000; i++ {
		k := string(keyOf(nil, 7, i))
		if len(k) != keySize || seen[k] {
			t.Fatalf("key %d = %q: wrong size or duplicate", i, k)
		}
		seen[k] = true
	}
	if string(keyOf(nil, 7, 1)) == string(keyOf(nil, 8, 1)) {
		t.Error("the seed does not change the keys")
	}
}

// TestCheckValueFlagsFaults checks that the verifier accepts the value it
// expects and flags a stale, torn or foreign one.
func TestCheckValueFlagsFaults(t *testing.T) {
	key := keyOf(nil, 1, 42)
	other := keyOf(nil, 1, 43)
	val := func(key []byte, writer, seq uint64) []byte {
		v := make([]byte, valueSize)
		makeValue(v, key, writer, seq)
		return v
	}
	good := val(key, 1, 10)
	if err := checkValue(key, good, 1, 10, 10); err != nil {
		t.Fatalf("intact current value rejected: %v", err)
	}
	if err := checkValue(key, good, 1, 5, 12); err != nil {
		t.Fatalf("value inside the [acked, issued] window rejected: %v", err)
	}

	torn := val(key, 1, 11)
	copy(torn[50:], good[50:]) // second half from the previous write
	flipped := val(key, 1, 10)
	flipped[30] ^= 1
	for _, tc := range []struct {
		name     string
		key, val []byte
		writer   uint64
		min, max uint64
		want     error
	}{
		{"stale", key, val(key, 1, 9), 1, 10, 12, errStale},
		{"torn halves", key, torn, 1, 10, 12, errTorn},
		{"flipped bit", key, flipped, 1, 10, 10, errTorn},
		{"short", key, good[:valueSize-1], 1, 10, 10, errTorn},
		{"another key's value", key, val(other, 1, 10), 1, 10, 10, errForeign},
		{"another writer's value", key, val(key, 0, 10), 1, 10, 10, errForeign},
		{"never written", key, val(key, 1, 13), 1, 10, 12, errForeign},
	} {
		err := checkValue(tc.key, tc.val, tc.writer, tc.min, tc.max)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
	if err := checkRead(key, nil, false, 1, 0, 0); !errors.Is(err, errMissing) {
		t.Errorf("missing key: err = %v", err)
	}
}
