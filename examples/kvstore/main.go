// KVStore: RedoDB, the wait-free durable key-value store, through its
// LevelDB/RocksDB-style API — puts, gets, atomic write batches, sorted
// snapshot iterators, and crash recovery. The store is a one-shard
// shardeddb, which is exactly the paper's RedoDB.
//
// With -db the pools are file-backed (one snapshot file per pool in the
// directory): run it twice and the second run finds the first run's data,
// like a real PM application re-mapping its device.
//
//	go run ./examples/kvstore
//	go run ./examples/kvstore -db /tmp/redodb.db
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/pmem"
	"repro/internal/shardeddb"
)

func main() {
	dbPath := flag.String("db", "", "optional directory of snapshot files backing the pools")
	flag.Parse()

	const threads = 2
	var g *pmem.Group
	if *dbPath != "" {
		if loaded, err := pmem.ReadGroupDir(*dbPath); err == nil {
			g = loaded
			fmt.Printf("loaded existing pools from %s\n", *dbPath)
		} else if !errors.Is(err, os.ErrNotExist) {
			fmt.Println("note:", err)
		}
	}
	if g == nil {
		g = shardeddb.NewGroup(shardeddb.GroupConfig{
			Shards: 1, Threads: threads, ShardWords: 1 << 17, Mode: pmem.Strict,
		})
	}
	db := shardeddb.Open(g, shardeddb.Options{Threads: threads})
	s := db.Session(0)

	// Point operations.
	s.Put([]byte("city:zurich"), []byte("428k"))
	s.Put([]byte("city:geneva"), []byte("204k"))
	s.Put([]byte("city:basel"), []byte("178k"))
	if v, ok := s.Get([]byte("city:zurich")); ok {
		fmt.Printf("zurich -> %s\n", v)
	}

	// An atomic write batch: both changes or neither, durably.
	batch := &shardeddb.WriteBatch{}
	batch.Put([]byte("city:bern"), []byte("134k"))
	batch.Delete([]byte("city:basel"))
	s.Write(batch)
	fmt.Printf("after batch: %d keys\n", s.Len())

	// A sorted snapshot iterator (later writes don't disturb it).
	it := s.NewIterator()
	s.Put([]byte("city:lausanne"), []byte("140k"))
	fmt.Println("snapshot scan:")
	for it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
	}
	if it.Seek([]byte("city:g")) {
		fmt.Printf("seek(city:g) -> %s\n", it.Key())
	}

	// Pull the plug and reopen: every completed operation survives
	// (durable linearizability), and recovery is immediate.
	g.Crash(pmem.CrashConservative, nil)
	fmt.Println("simulated power failure...")
	db = shardeddb.Open(g, shardeddb.Options{Threads: threads})
	s = db.Session(0)
	fmt.Printf("recovered %d keys:\n", s.Len())
	it = s.NewIterator()
	for it.Next() {
		fmt.Printf("  %s = %s\n", it.Key(), it.Value())
	}

	if *dbPath != "" {
		if err := g.WriteDir(*dbPath); err != nil {
			fmt.Println("snapshot failed:", err)
			return
		}
		fmt.Printf("pool snapshots written to %s — rerun to pick them up\n", *dbPath)
	}
}
