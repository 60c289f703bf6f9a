// Command redodb is an interactive shell (and one-shot CLI) for RedoDB, the
// wait-free durable key-value store (a one-shard shardeddb), over
// file-backed emulated-NVMM pools:
//
//	redodb -db /tmp/shop.db put user:1 alice
//	redodb -db /tmp/shop.db get user:1
//	redodb -db /tmp/shop.db scan user:
//	redodb -db /tmp/shop.db            # interactive shell
//
// The -db directory holds one snapshot file per pool of the store's group
// (pmem.Group.WriteDir). Every mutation is a durable linearizable
// transaction; the snapshots are rewritten on exit (and after every one-shot
// command), so state survives across invocations like a real
// persistent-memory application.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/pmem"
	"repro/internal/shardeddb"
)

func main() {
	var (
		dbPath = flag.String("db", "redodb.db", "directory of pool snapshot files")
		words  = flag.Uint64("words", 1<<20, "shard region size in 64-bit words for a fresh store")
	)
	flag.Parse()

	g, fresh, err := openGroup(*dbPath, *words)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	db := shardeddb.Open(g, shardeddb.Options{Threads: 1})
	s := db.Session(0)
	if fresh {
		fmt.Fprintf(os.Stderr, "created new store (1 shard of %d-word regions)\n", *words)
	} else {
		fmt.Fprintf(os.Stderr, "opened %s: %d keys\n", *dbPath, s.Len())
	}

	save := func() {
		if err := g.WriteDir(*dbPath); err != nil {
			fmt.Fprintln(os.Stderr, "snapshot failed:", err)
			os.Exit(1)
		}
	}

	if args := flag.Args(); len(args) > 0 {
		if code := run(s, db, args); code != 0 {
			os.Exit(code)
		}
		save()
		return
	}

	// Interactive shell.
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("redodb> ")
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) > 0 {
			if fields[0] == "quit" || fields[0] == "exit" {
				break
			}
			run(s, db, fields)
		}
		fmt.Print("redodb> ")
	}
	save()
	fmt.Fprintln(os.Stderr, "snapshot saved to", *dbPath)
}

func openGroup(dir string, words uint64) (*pmem.Group, bool, error) {
	g, err := pmem.ReadGroupDir(dir)
	if err == nil {
		return g, false, nil
	}
	if !errors.Is(err, os.ErrNotExist) {
		return nil, false, err
	}
	return shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards: 1, Threads: 1, ShardWords: words, Mode: pmem.Strict,
	}), true, nil
}

func run(s *shardeddb.Session, db *shardeddb.DB, args []string) int {
	switch args[0] {
	case "put":
		if len(args) != 3 {
			return usage("put <key> <value>")
		}
		s.Put([]byte(args[1]), []byte(args[2]))
		fmt.Println("OK")
	case "get":
		if len(args) != 2 {
			return usage("get <key>")
		}
		v, ok := s.Get([]byte(args[1]))
		if !ok {
			fmt.Println("(not found)")
			return 1
		}
		fmt.Println(string(v))
	case "del":
		if len(args) != 2 {
			return usage("del <key>")
		}
		if s.Delete([]byte(args[1])) {
			fmt.Println("OK")
		} else {
			fmt.Println("(not found)")
			return 1
		}
	case "scan":
		prefix := ""
		if len(args) > 1 {
			prefix = args[1]
		}
		it := s.NewIterator()
		if prefix != "" {
			it.Seek([]byte(prefix))
			for it.Valid() && strings.HasPrefix(string(it.Key()), prefix) {
				fmt.Printf("%s = %s\n", it.Key(), it.Value())
				if !it.Next() {
					break
				}
			}
		} else {
			for it.Next() {
				fmt.Printf("%s = %s\n", it.Key(), it.Value())
			}
		}
	case "len":
		fmt.Println(s.Len())
	case "stats":
		fmt.Printf("keys=%d shards=%d nvmm_footprint=%dB\n",
			s.Len(), db.Shards(), db.Group().NVMBytes())
	case "batch":
		// batch put k1 v1 put k2 v2 del k3 … — applied atomically.
		b := &shardeddb.WriteBatch{}
		i := 1
		for i < len(args) {
			switch args[i] {
			case "put":
				if i+2 >= len(args) {
					return usage("batch … put <key> <value> …")
				}
				b.Put([]byte(args[i+1]), []byte(args[i+2]))
				i += 3
			case "del":
				if i+1 >= len(args) {
					return usage("batch … del <key> …")
				}
				b.Delete([]byte(args[i+1]))
				i += 2
			default:
				return usage("batch [put <k> <v> | del <k>]…")
			}
		}
		s.Write(b)
		fmt.Printf("OK (%d ops, atomic)\n", b.Len())
	case "help":
		fmt.Println("commands: put get del scan len stats batch quit")
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q (try help)\n", args[0])
		return 2
	}
	return 0
}

func usage(u string) int {
	fmt.Fprintln(os.Stderr, "usage:", u)
	return 2
}
