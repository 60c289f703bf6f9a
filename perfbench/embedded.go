package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/shardeddb"
)

// Embedded workloads: closed-loop goroutines calling a one-shard
// shardeddb.Session directly, with no wire, server or socket in the path.

const (
	// A fill round ends when the store holds fillKeys keys. The map's
	// bucket array doubles whenever the count passes its size, and the
	// rehash runs inside one transaction whose cost is superlinear: the
	// doubling at 32,768 keys stalls two writers for ~1.4 s, the one at
	// 65,536 for 4–10 s, so unpredictably that rounds reaching it vary
	// 2× from run to run. Stopping below it keeps a growth stall in every
	// round and several rounds in every run.
	fillKeys       = 60_000
	fillWriters    = 2
	fillShardWords = 1 << 21 // room for fillKeys keys and the grown bucket array

	urKeys       = 20_000 // update-read preload: a small heap, unlike fill's
	urShardWords = 1 << 20
	urClient     = 1 // detectable client id of the update-read writer
	urWriter     = 1 // writer id stamped into update-read values
	urAckEvery   = 64
	// Every update-read round runs on its own store, reopened urReopens
	// times after it; an untraced run's rounds are urRoundWindows
	// one-second windows long.
	urRoundWindows = 5
	urReopens      = 3

	theta   = 0.99 // zipfian skew of every keyed workload
	reopens = 11   // recovery is timed as the median of this many reopens
	// Every fill round's store is reopened fillReopens times, so recover_s
	// samples the whole run rather than one moment at its end.
	fillReopens = 3
	minSetup    = 3 // set-up is timed as the median of this many builds
)

func openShards(shards, threads int, words uint64) (*pmem.Group, *shardeddb.DB) {
	g := shardeddb.NewGroup(shardeddb.GroupConfig{
		Shards: shards, Threads: threads, ShardWords: words, Mode: pmem.Direct, Latency: latency,
	})
	return g, shardeddb.Open(g, shardeddb.Options{Threads: threads})
}

// release collects the previous store before the next one is built, so
// set-up times do not depend on when the collector last ran. The memory
// stays with the Go heap: returning it to the OS made the next store's
// first touches page-fault and doubled the next fill's grow stalls.
func release() { runtime.GC() }

// reopen times shardeddb.Open over the store's group plus one checked first
// operation, then audits the allocator.
func reopen(res *result, g *pmem.Group, threads int, probe func(*shardeddb.Session) error, log *spanLog) (*shardeddb.DB, float64) {
	t0 := now()
	db := shardeddb.Open(g, shardeddb.Options{Threads: threads})
	t1 := now()
	err := probe(db.Session(0))
	t2 := now()
	log.record("shardeddb.Open", 0, 0, t0, t1)
	res.check(err)
	res.check(db.AllocReconcile())
	log.record("shardeddb.DB.AllocReconcile", 0, 0, t2, now())
	return db, float64(t2-t0) / 1e9
}

// recoverStore reopens a store whose traffic has stopped n times and
// returns the last handle with each recovery's time in seconds.
func recoverStore(res *result, g *pmem.Group, threads, n int, probe func(*shardeddb.Session) error, log *spanLog) (*shardeddb.DB, []float64) {
	var db *shardeddb.DB
	var times []float64
	for i := 0; i < n; i++ {
		var d float64
		db, d = reopen(res, g, threads, probe, log)
		times = append(times, d)
	}
	return db, times
}

// ---- fill ----------------------------------------------------------------

// fillRound is one fill of an empty store to fillKeys keys.
type fillRound struct {
	g       *pmem.Group
	db      *shardeddb.DB
	setup   float64 // seconds to build the empty store
	elapsed int64
	puts    samples
	seqOf   []uint32                // writer-local sequence number each key was written with
	pm      pmem.StatsSnapshot      // group counters over the fill
	pools   [2][]pmem.StatsSnapshot // per-pool counters before and after
	rt      [2]runtimeCounters
	logs    []*spanLog
	clock   *opClock
	win     window
}

// fillOnce builds an empty one-shard store and has fillWriters closed-loop
// writers insert disjoint fresh keys in random order until it holds
// fillKeys keys. Writer w owns the key numbers congruent to w modulo
// fillWriters and writes them in a seeded random order.
func fillOnce(cfg config, traced bool) *fillRound {
	t0 := now()
	g, db := openShards(1, fillWriters, fillShardWords)
	fr := &fillRound{g: g, db: db, setup: float64(now()-t0) / 1e9, seqOf: make([]uint32, fillKeys)}
	var tr tracerHandle
	if traced {
		fr.clock = newOpClock()
		tr = attachTracer(g)
	}
	per := make([]samples, fillWriters)
	ends := make([]int64, fillWriters)
	fr.logs = make([]*spanLog, fillWriters)
	var wg sync.WaitGroup
	fr.pools[0] = poolStats(g)
	pm0 := g.Stats()
	fr.rt[0] = readRuntime()
	start := now()
	for w := 0; w < fillWriters; w++ {
		fr.logs[w] = newSpanLog(traced)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			perm := rand.New(rand.NewSource(cfg.seed*7919 + int64(w))).Perm(fillKeys / fillWriters)
			sess := db.Session(w)
			key := make([]byte, 0, keySize)
			val := make([]byte, valueSize)
			per[w].ns = make([]uint32, 0, len(perm))
			for j, p := range perm {
				k := uint64(p*fillWriters + w)
				key = keyOf(key[:0], cfg.seed, k)
				makeValue(val, key, uint64(w), uint64(j+1))
				fr.seqOf[k] = uint32(j + 1)
				t0 := now()
				sess.Put(key, val)
				t1 := now()
				per[w].add(t1 - t0)
				fr.logs[w].record("shardeddb.Session.Put", k, 0, t0, t1)
				fr.clock.tick(t1)
			}
			ends[w] = now()
		}(w)
	}
	wg.Wait()
	fr.rt[1] = readRuntime()
	for w := range per {
		fr.puts.merge(&per[w])
		fr.elapsed = max(fr.elapsed, ends[w]-start)
	}
	fr.pm = g.Stats().Sub(pm0)
	fr.pools[1] = poolStats(g)
	if traced {
		fr.win = tr.detach(g)
	}
	return fr
}

// verifyFill reads every key back, checking it holds the value its owner
// wrote, and returns the read latencies.
func verifyFill(res *result, cfg config, db *shardeddb.DB, seqOf []uint32) samples {
	sess := db.Session(0)
	var gets samples
	gets.ns = make([]uint32, 0, fillKeys)
	key := make([]byte, 0, keySize)
	for k := uint64(0); k < fillKeys; k++ {
		key = keyOf(key[:0], cfg.seed, k)
		t0 := now()
		v, ok := sess.Get(key)
		gets.add(now() - t0)
		seq := uint64(seqOf[k])
		res.check(checkRead(key, v, ok, k%fillWriters, seq, seq))
	}
	return gets
}

func runFill(cfg config) (*result, error) {
	res := &result{}
	var setups []float64
	// Every round builds its own store; extra builds only time set-up.
	for i := 0; i < minSetup-1; i++ {
		t0 := now()
		openShards(1, fillWriters, fillShardWords)
		setups = append(setups, float64(now()-t0)/1e9)
		release()
	}
	// Rounds repeat until the measured time reaches the budget; every
	// round's store is read back in full, reopened and read back again. The
	// traced run makes one untraced and one traced round instead.
	budget := int64(cfg.seconds * 1e9)
	var rounds []*fillRound
	var elapsed int64
	var perRound, recovers []float64
	var gets, puts []samples
	recLog := newSpanLog(cfg.trace)
	for (cfg.trace && len(rounds) < 2) || (!cfg.trace && elapsed < budget) {
		if len(rounds) > 0 {
			prev := rounds[len(rounds)-1]
			prev.g, prev.db = nil, nil // free the previous store before building
		}
		release()
		fr := fillOnce(cfg, cfg.trace && len(rounds) == 1)
		rounds = append(rounds, fr)
		setups = append(setups, fr.setup)
		elapsed += fr.elapsed
		perRound = append(perRound, fillKeys/(float64(fr.elapsed)/1e9))
		puts = append(puts, fr.puts)
		gets = append(gets, verifyFill(res, cfg, fr.db, fr.seqOf))
		probe := func(s *shardeddb.Session) error {
			key := keyOf(nil, cfg.seed, 0)
			v, ok := s.Get(key)
			seq := uint64(fr.seqOf[0])
			return checkRead(key, v, ok, 0, seq, seq)
		}
		db, times := recoverStore(res, fr.g, fillWriters, fillReopens, probe, recLog)
		recovers = append(recovers, times...)
		verifyFill(res, cfg, db, fr.seqOf)
		fmt.Printf("# round %d: %d keys in %.3f s, longest put %.3f s\n", len(rounds), fillKeys, float64(fr.elapsed)/1e9, float64(fr.puts.max)/1e9)
	}
	if !cfg.trace {
		// Each round is a window: a rate is the median over rounds, a tail
		// the median of the rounds' tails.
		res.add("setup_s", median(setups), "s", len(setups))
		res.add("ops_s", median(perRound), "1/s", len(rounds))
		// A closed loop offers exactly what the store completes.
		res.add("max_rate_ops_s", median(perRound), "1/s", len(rounds))
		res.tailPair("get", gets)
		res.tailPair("put", puts)
		res.add("recover_s", median(recovers), "s", len(recovers))
		return res, nil
	}
	// Counters and times from the untraced round, ratios from the traced
	// round's retained window.
	plain, traced := rounds[0], rounds[1]
	res.addPmem(plain.pm, fillKeys)
	res.addEngine(traced.win, traced.clock.since(traced.win.start), 0)
	res.add("redodb.grow_stall_ms", float64(plain.puts.max)/1e6, "ms", plain.puts.n())
	res.addShards(plain.pools[0], plain.pools[1], fillKeys)
	res.addRuntime(plain.rt[0], plain.rt[1], fillKeys)
	res.add("bench.self_pct", 100*(1-plain.puts.sum()/(fillWriters*float64(plain.elapsed))), "%", 0)
	res.add("trace.overhead_pct", 100*(float64(traced.elapsed)/float64(plain.elapsed)-1), "%", 0)
	return res, writeSpans(cfg, append(traced.logs, recLog)...)
}

// ---- update-read -----------------------------------------------------------

// urState is the update-read store and the writer's acknowledged history.
type urState struct {
	g      *pmem.Group
	db     *shardeddb.DB
	acked  []atomic.Uint64 // per key: seq of the last acknowledged put
	issued []atomic.Uint64 // per key: seq of the last issued put
	seq    uint64          // writer's last sequence number (writer-owned)
	// applied counts detectable puts acknowledged as applied.
	applied          uint64
	lastKey, lastVal []byte
	maxPreload       int64 // longest single preload Put, ns
}

func urSetup(cfg config) *urState {
	g, db := openShards(1, 2, urShardWords)
	st := &urState{g: g, db: db, acked: make([]atomic.Uint64, urKeys), issued: make([]atomic.Uint64, urKeys)}
	sess := db.Session(0)
	key := make([]byte, 0, keySize)
	val := make([]byte, valueSize)
	for k := uint64(0); k < urKeys; k++ {
		st.seq++
		key = keyOf(key[:0], cfg.seed, k)
		makeValue(val, key, urWriter, st.seq)
		t0 := now()
		sess.Put(key, val)
		st.maxPreload = max(st.maxPreload, now()-t0)
		st.acked[k].Store(st.seq)
		st.issued[k].Store(st.seq)
	}
	return st
}

// urWindowNs is the update-read window: rates and tails are medians over
// one-second slices of the phase.
const urWindowNs = 1e9

// urPhase is what one measured update-read phase produced.
type urPhase struct {
	gets, puts []samples // per window
	acks       samples
	elapsed    int64
	logs       []*spanLog
	clock      *opClock // puts completed per ms (traced phases only)
	pm         pmem.StatsSnapshot
	pools      [2][]pmem.StatsSnapshot
	rt         [2]runtimeCounters
}

// ops counts the operations completed in the phase.
func (ph *urPhase) ops() float64 { return float64(all(ph.gets, ph.puts).n()) }

// opsPerSec is the median over windows of the operations completed per
// second.
func (ph *urPhase) opsPerSec() float64 {
	per := make([]float64, len(ph.gets))
	for w := range per {
		per[w] = float64(ph.gets[w].n()+ph.puts[w].n()) / (urWindowNs / 1e9)
	}
	return median(per)
}

// urRun runs one closed-loop reader (Get) and one closed-loop writer
// (PutDetectable overwrites, acknowledged every urAckEvery puts) for the
// given number of one-second windows, both drawing keys zipfian. Every read is checked against the
// writer's history: intact, the owner's, and no older than the last put
// acknowledged before the read began.
func urRun(res *result, cfg config, st *urState, phase int64, windows int, traced bool) *urPhase {
	ph := &urPhase{
		gets: make([]samples, windows),
		puts: make([]samples, windows),
		logs: []*spanLog{newSpanLog(traced), newSpanLog(traced)},
	}
	if traced {
		ph.clock = newOpClock()
	}
	zetan := load.Zetan(urKeys, theta)
	var readFails, writeFails []error
	var wg sync.WaitGroup
	pm0 := st.g.Stats()
	ph.pools[0] = poolStats(st.g)
	ph.rt[0] = readRuntime()
	start := now()
	end := start + int64(windows)*urWindowNs
	wg.Add(2)
	go func() { // reader
		defer wg.Done()
		sess := st.db.Session(0)
		zipf := load.NewZipf(rand.New(rand.NewSource(cfg.seed*104729+phase*2)), urKeys, theta, zetan)
		key := make([]byte, 0, keySize)
		for i := uint64(0); ; i++ {
			k := zipf.Next()
			key = keyOf(key[:0], cfg.seed, k)
			floor := st.acked[k].Load()
			t0 := now()
			if t0 >= end {
				return
			}
			v, ok := sess.Get(key)
			t1 := now()
			ph.gets[(t0-start)/urWindowNs].add(t1 - t0)
			ph.logs[0].record("shardeddb.Session.Get", i, 0, t0, t1)
			if err := checkRead(key, v, ok, urWriter, floor, st.issued[k].Load()); err != nil {
				readFails = append(readFails, err)
			}
		}
	}()
	go func() { // writer
		defer wg.Done()
		sess := st.db.Session(1)
		zipf := load.NewZipf(rand.New(rand.NewSource(cfg.seed*104729+phase*2+1)), urKeys, theta, zetan)
		key := make([]byte, 0, keySize)
		val := make([]byte, valueSize)
		for n := 1; ; n++ {
			k := zipf.Next()
			key = keyOf(key[:0], cfg.seed, k)
			seq := st.seq + 1
			makeValue(val, key, urWriter, seq)
			t0 := now()
			if t0 >= end {
				return
			}
			st.seq = seq
			st.issued[k].Store(seq)
			applied := sess.PutDetectable(urClient, seq, key, val)
			t1 := now()
			ph.puts[(t0-start)/urWindowNs].add(t1 - t0)
			ph.logs[1].record("shardeddb.Session.PutDetectable", seq, 0, t0, t1)
			ph.clock.tick(t1)
			if applied {
				st.applied++
			} else {
				writeFails = append(writeFails, fmt.Errorf("put seq %d: deduplicated on its first send", seq))
			}
			st.acked[k].Store(seq)
			st.lastKey, st.lastVal = append(st.lastKey[:0], key...), append(st.lastVal[:0], val...)
			if n%urAckEvery == 0 {
				t2 := now()
				sess.AckApplied(urClient, seq)
				t3 := now()
				ph.acks.add(t3 - t2)
				ph.logs[1].record("shardeddb.Session.AckApplied", seq, 0, t2, t3)
			}
		}
	}()
	wg.Wait()
	ph.elapsed = now() - start
	ph.rt[1] = readRuntime()
	ph.pm = st.g.Stats().Sub(pm0)
	ph.pools[1] = poolStats(st.g)
	res.checkMany(all(ph.gets).n(), readFails)
	res.checkMany(all(ph.puts).n(), writeFails)
	return ph
}

// urVerify checks the exactly-once witness and that every key holds its
// last acknowledged value.
func urVerify(res *result, cfg config, st *urState, sess *shardeddb.Session) {
	receipts, maxSeq, _ := sess.DetectStats(urClient)
	res.check(errorIf(receipts != st.applied || maxSeq != st.seq,
		"detect stats: %d receipts up to seq %d, but %d puts were acknowledged applied up to seq %d", receipts, maxSeq, st.applied, st.seq))
	res.check(errorIf(!sess.WasApplied(urClient, st.seq), "last put seq %d not reported applied", st.seq))
	key := make([]byte, 0, keySize)
	for k := uint64(0); k < urKeys; k++ {
		key = keyOf(key[:0], cfg.seed, k)
		v, ok := sess.Get(key)
		seq := st.acked[k].Load()
		res.check(checkRead(key, v, ok, urWriter, seq, seq))
	}
}

// urResend re-sends the last put with its original sequence number, as a
// client retrying after a lost reply would: the receipt must deduplicate it.
func urResend(res *result, st *urState) {
	applied := st.db.Session(1).PutDetectable(urClient, st.seq, st.lastKey, st.lastVal)
	res.check(errorIf(applied, "retry of put seq %d applied twice", st.seq))
}

// urFinish checks a store whose traffic has stopped for good, reopens it n
// times and checks it again, returning each reopen's time in seconds.
func urFinish(res *result, cfg config, st *urState, n int, log *spanLog) []float64 {
	urVerify(res, cfg, st, st.db.Session(0))
	probe := func(s *shardeddb.Session) error {
		key := keyOf(nil, cfg.seed, 0)
		v, ok := s.Get(key)
		seq := st.acked[0].Load()
		return checkRead(key, v, ok, urWriter, seq, seq)
	}
	db, recovers := recoverStore(res, st.g, 2, n, probe, log)
	urVerify(res, cfg, st, db.Session(0))
	return recovers
}

// newURStore frees the previous store and builds and preloads a new one,
// returning it with its set-up time in seconds.
func newURStore(cfg config) (*urState, float64) {
	release()
	t0 := now()
	st := urSetup(cfg)
	return st, float64(now()-t0) / 1e9
}

// runUpdateRead cuts the run into rounds, each on a newly built store that
// is verified, reopened urReopens times and verified again after its
// traffic stops. The host's speed drifts by ±20% over tens of seconds, and
// a read's cost with it (the writer copies ~1,200 words between replicas
// per put, so reads ride on the host's caches); rounds spread the set-up
// and recovery samples over the whole run rather than its two ends. An
// untraced run repeats rounds of urRoundWindows windows until the measured
// windows reach the run's seconds, and takes a latency over every sample
// of every round, a rate as the median over all windows, set-up and
// recovery times as the medians over all rounds. The traced run makes one
// untraced and one traced round of half the windows each instead.
func runUpdateRead(cfg config) (*result, error) {
	res := &result{}
	var setups, recovers, rates []float64
	var gets, puts []samples
	var phases []*urPhase
	var win window
	var maxPreload int64 // longest preload put of the first round's store
	recLog := newSpanLog(cfg.trace)
	budget := max(1, int(cfg.seconds*1e9/urWindowNs))
	roundWindows := urRoundWindows
	if cfg.trace {
		roundWindows = max(1, budget/2)
		budget = 2 * roundWindows
	}
	for done, round := 0, 0; done < budget; round++ {
		st, setup := newURStore(cfg)
		setups = append(setups, setup)
		if round == 0 {
			maxPreload = st.maxPreload
		}
		windows := min(roundWindows, budget-done)
		traced := cfg.trace && round == 1
		var tr tracerHandle
		if traced {
			tr = attachTracer(st.g)
		}
		ph := urRun(res, cfg, st, int64(round), windows, traced)
		urResend(res, st)
		if traced {
			win = tr.detach(st.g)
		}
		done += windows
		phases = append(phases, ph)
		gets, puts = append(gets, ph.gets...), append(puts, ph.puts...)
		for w := range ph.gets {
			rates = append(rates, float64(ph.gets[w].n()+ph.puts[w].n())/(urWindowNs/1e9))
		}
		recovers = append(recovers, urFinish(res, cfg, st, urReopens, recLog)...)
		fmt.Printf("# round %d: %d windows, %.0f ops/s\n", round+1, windows, ph.opsPerSec())
	}
	for len(setups) < minSetup {
		_, setup := newURStore(cfg)
		setups = append(setups, setup)
	}
	if !cfg.trace {
		res.add("setup_s", median(setups), "s", len(setups))
		res.add("ops_s", median(rates), "1/s", len(rates))
		// A closed loop offers exactly what the store completes.
		res.add("max_rate_ops_s", median(rates), "1/s", len(rates))
		res.tailPair("get", gets)
		res.tailPair("put", puts)
		res.add("recover_s", median(recovers), "s", len(recovers))
		return res, nil
	}
	// Counters and times from the untraced round, ratios from the traced
	// round's retained window.
	ph, traced := phases[0], phases[1]
	n := float64(all(ph.puts).n())
	res.addPmem(ph.pm, n)
	windowPuts := traced.clock.since(win.start)
	res.addEngine(win, windowPuts, windowPuts)
	res.add("redodb.grow_stall_ms", float64(maxPreload)/1e6, "ms", urKeys)
	res.addShards(ph.pools[0], ph.pools[1], n)
	res.addRuntime(ph.rt[0], ph.rt[1], ph.ops())
	inCalls := all(ph.gets).sum() + all(ph.puts).sum() + ph.acks.sum()
	res.add("bench.self_pct", 100*(1-inCalls/(2*float64(ph.elapsed))), "%", 0)
	res.add("trace.overhead_pct", 100*(ph.opsPerSec()/traced.opsPerSec()-1), "%", 0)
	return res, writeSpans(cfg, append(traced.logs, recLog)...)
}
