package shardeddb

import (
	"fmt"
	"testing"

	"repro/internal/pmem"
	"repro/internal/redodb"
)

func TestShardedDetectableOps(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testDetectableOps(t, shards) })
	}
}

func testDetectableOps(t *testing.T, shards int) {
	g := NewGroup(GroupConfig{Shards: shards, Threads: 1})
	s := Open(g, Options{Threads: 1}).Session(0)
	const client = 11

	if !s.PutDetectable(client, 1, []byte("a-key"), []byte("v1")) {
		t.Fatal("first PutDetectable deduplicated")
	}
	if s.PutDetectable(client, 1, []byte("a-key"), []byte("v1")) {
		t.Fatal("retried PutDetectable applied twice")
	}
	if !s.WasApplied(client, 1) {
		t.Fatal("WasApplied false after commit")
	}
	if !s.DeleteDetectable(client, 2, []byte("a-key")) {
		t.Fatal("first DeleteDetectable deduplicated")
	}
	if s.DeleteDetectable(client, 2, []byte("a-key")) {
		t.Fatal("retried DeleteDetectable applied twice")
	}

	// Cross-shard detectable batch: scattered keys and a delete, then a
	// retry.
	b := &WriteBatch{}
	for i := 0; i < 6; i++ {
		b.Put([]byte(fmt.Sprintf("%c-det", 'a'+i)), []byte("w"))
	}
	b.Delete([]byte("z-det"))
	if !s.WriteDetectable(b, client, 3) {
		t.Fatal("first WriteDetectable deduplicated")
	}
	if s.WriteDetectable(b, client, 3) {
		t.Fatal("retried WriteDetectable applied twice")
	}
	if r, _, _ := s.DetectStats(client); r != 3 {
		t.Fatalf("receipts = %d after the batch, want 3 (a batch is one request)", r)
	}
	for i := 0; i < 6; i++ {
		if !s.Has([]byte(fmt.Sprintf("%c-det", 'a'+i))) {
			t.Fatalf("batch key %d missing", i)
		}
	}
	// Single-shard detectable batch takes the fast path.
	sb := &WriteBatch{}
	sb.Put([]byte("solo"), []byte("x"))
	if !s.WriteDetectable(sb, client, 4) {
		t.Fatal("single-shard WriteDetectable deduplicated")
	}
	if s.WriteDetectable(sb, client, 4) {
		t.Fatal("retried single-shard WriteDetectable applied twice")
	}
	// Empty batch: still consumes the seq with a bare receipt.
	if !s.WriteDetectable(&WriteBatch{}, client, 5) {
		t.Fatal("empty WriteDetectable deduplicated")
	}
	if s.WriteDetectable(&WriteBatch{}, client, 5) {
		t.Fatal("retried empty WriteDetectable applied twice")
	}

	if r, mx, a := s.DetectStats(client); r != 5 || mx != 5 || a != 0 {
		t.Fatalf("DetectStats = (%d, %d, %d), want (5, 5, 0)", r, mx, a)
	}
	s.AckApplied(client, 5)
	if r, mx, a := s.DetectStats(client); r != 5 || mx != 5 || a != 5 {
		t.Fatalf("DetectStats after ack = (%d, %d, %d), want (5, 5, 5)", r, mx, a)
	}
	for seq := uint64(1); seq <= 5; seq++ {
		if !s.WasApplied(client, seq) {
			t.Fatalf("acked seq %d no longer applied", seq)
		}
	}
}

// TestShardedDetectableCrashExactlyOnce sweeps power failures across
// cross-shard detectable batches and runs the client recovery protocol after
// each: probe WasApplied, retry unapplied requests, and verify every batch is
// present exactly once and atomically — whether it was finished by the first
// attempt, by recovery's roll-forward of the intent (which re-records the
// receipt on the home shard), or by the retry.
func TestShardedDetectableCrashExactlyOnce(t *testing.T) {
	const batches = 6
	const perBatch = 5
	const client = 17
	key := func(b uint64, i int) []byte {
		return []byte(fmt.Sprintf("%c-det%02d", 'a'+i, b))
	}
	for _, shards := range []int{1, 8} {
		for fail := int64(20); ; fail += 101 {
			g := NewGroup(GroupConfig{Shards: shards, Threads: 1, Mode: pmem.Strict})
			crashed := false
			func() {
				defer func() {
					if r := recover(); r != nil {
						if r != pmem.ErrSimulatedPowerFailure {
							panic(r)
						}
						crashed = true
					}
					g.InjectFailure(-1)
				}()
				s := Open(g, Options{Threads: 1}).Session(0)
				g.InjectFailure(fail)
				for b := uint64(1); b <= batches; b++ {
					batch := &WriteBatch{}
					for i := 0; i < perBatch; i++ {
						batch.Put(key(b, i), []byte(fmt.Sprintf("v%d", b)))
					}
					s.WriteDetectable(batch, client, b)
				}
			}()
			if !crashed {
				break
			}
			g.Crash(pmem.CrashConservative, nil)
			s := Open(g, Options{Threads: 1}).Session(0)

			// Atomicity + probe soundness: a receipted batch is fully
			// present, an unreceipted one fully absent (recovery already
			// rolled forward or discarded any surviving intent).
			for b := uint64(1); b <= batches; b++ {
				present := 0
				for i := 0; i < perBatch; i++ {
					if s.Has(key(b, i)) {
						present++
					}
				}
				if s.WasApplied(client, b) && present != perBatch {
					t.Fatalf("shards=%d fail=%d: batch %d receipted but %d/%d keys present",
						shards, fail, b, present, perBatch)
				}
				if !s.WasApplied(client, b) && present != 0 {
					t.Fatalf("shards=%d fail=%d: batch %d unreceipted but %d keys present",
						shards, fail, b, present)
				}
			}

			// Retry storm: re-issue every batch; exactly the unreceipted
			// ones must apply.
			for b := uint64(1); b <= batches; b++ {
				pre := s.WasApplied(client, b)
				batch := &WriteBatch{}
				for i := 0; i < perBatch; i++ {
					batch.Put(key(b, i), []byte(fmt.Sprintf("v%d", b)))
				}
				if appliedNow := s.WriteDetectable(batch, client, b); appliedNow == pre {
					t.Fatalf("shards=%d fail=%d: retry of batch %d applied=%v with prior receipt=%v",
						shards, fail, b, appliedNow, pre)
				}
			}
			for b := uint64(1); b <= batches; b++ {
				for i := 0; i < perBatch; i++ {
					if v, ok := s.Get(key(b, i)); !ok || string(v) != fmt.Sprintf("v%d", b) {
						t.Fatalf("shards=%d fail=%d: after retries batch %d key %d = %q,%v",
							shards, fail, b, i, v, ok)
					}
				}
			}
			if r, mx, _ := s.DetectStats(client); r != batches || mx != batches {
				t.Fatalf("shards=%d fail=%d: receipts=%d maxSeq=%d, want %d each",
					shards, fail, r, mx, uint64(batches))
			}
		}
	}
}

// TestIntentReceiptRoundTrip exercises the flagged intent payload encoding,
// including the home shard carrying no operations of its own.
func TestIntentReceiptRoundTrip(t *testing.T) {
	ops := []redodb.Op{
		{Key: []byte("k1"), Val: []byte("v1")},
		{Key: []byte("k2"), Del: true},
	}
	plain := encodeIntent(ops, nil)
	gotOps, rcpt := decodeIntent(plain, 4)
	if rcpt != nil || len(gotOps) != 2 || string(gotOps[0].Key) != "k1" || !gotOps[1].Del {
		t.Fatalf("plain round trip = %+v, %+v", gotOps, rcpt)
	}
	want := &intentReceipt{client: 7, seq: 42, digest: 0xdead, home: 3}
	gotOps, rcpt = decodeIntent(encodeIntent(ops, want), 4)
	if rcpt == nil || *rcpt != *want || len(gotOps) != 2 {
		t.Fatalf("receipt round trip = %+v, %+v", gotOps, rcpt)
	}

	mustCorrupt := func(name string, f func()) {
		defer func() {
			if _, ok := recover().(*pmem.CorruptionError); !ok {
				t.Fatalf("%s did not raise a corruption error", name)
			}
		}()
		f()
	}
	mustCorrupt("home out of range", func() { decodeIntent(encodeIntent(ops, want), 2) })
	mustCorrupt("unknown flags", func() {
		buf := append([]byte(nil), plain...)
		buf[0] = 9
		decodeIntent(buf, 4)
	})
	mustCorrupt("truncated receipt", func() { decodeIntent(encodeIntent(ops, want)[:16], 4) })
	mustCorrupt("short header", func() { decodeIntent(nil, 4) })
}
