package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/load"
	"repro/internal/pmem"
	"repro/internal/server"
	"repro/internal/shardeddb"
	"repro/internal/wire"
)

// serve-ycsb-a: an in-process server over an 8-shard store on loopback TCP,
// driven by an open-loop Poisson generator over two pipelined connections
// with YCSB-A traffic (50% GET, 50% plain PUT).

const (
	serveShards     = 8
	serveKeys       = 100_000
	serveConns      = 2
	serveShardWords = 1 << 19
	serveMaxBatch   = 64 // the kvserver default

	fixedRate     = 20_000 // ops/s at which the latency metrics are taken
	limitUs       = 1000   // latency limit of max_rate_ops_s (see maxrate.go)
	warmupNs      = 400e6
	probeWindows  = 2 // windows per visit of a coarse ladder rate
	refineWindows = 5 // windows per probe that narrows the bracket
	// A backlog growing by more than this share of the offered rate means
	// the server is not keeping up; a millisecond stall in a 200 ms window
	// stays well below it.
	backlogShare = 0.05
	// Tail percentiles are taken per window and reported as the median over
	// a step's windows: on a shared virtual machine the host now and then
	// stalls a vCPU for milliseconds, and one stall would otherwise decide
	// a whole step's p99. A window holds enough requests for a p99 at the
	// lowest rate probed.
	windowNs    = 200e6
	drainWaitNs = 5e9

	// fifoDepth bounds the requests one connection can have in flight: a
	// probe above the server's capacity queues well under this many.
	fifoDepth = 1 << 16
	// wireSample is how many bytes of request frames the traced run keeps
	// to time the wire codec on this workload's own frames.
	wireSample = 1 << 20

	// The generator's own timer must stay well inside the latency limit: a
	// run whose generator was typically later than a tenth of it measured
	// the timer, not the server, and is invalid; so is a fixed-rate window
	// in which its p99 passed a quarter of it.
	maxLateP50Us = limitUs / 10
	maxLateP99Us = limitUs / 4
	chunkWindows = 5 // windows per fixed-rate step
	// Untraced, a fixed-rate step follows every visitsPerChunk ladder
	// visits: 12 steps over the 24 visits.
	visitsPerChunk = 2
	fixedCap       = 2 // the fixed-rate phase runs at most this many times the windows it wants
	minValid       = 5 // fewer valid fixed-rate windows than this invalidate the run
)

// entry is one request in flight on a connection, queued before its bytes
// are written so the receiver always finds it.
type entry struct {
	reqID uint64
	op    wire.Op
	win   int32 // window of the step the request was due in
	key   uint32
	seq   uint64 // PUT: the sequence number written; GET: the floor it must see
	due   int64
	sent  int64
	sink  *sink
}

// sink collects one connection's results for one step, per window.
type sink struct {
	get, put []samples
	checked  int
	failures []error
	bytesIn  int64
	puts     *opClock // PUT completions per ms (traced steps)
	log      *spanLog
}

func newSink(windows int, puts *opClock, log *spanLog) *sink {
	return &sink{get: make([]samples, windows), put: make([]samples, windows), puts: puts, log: log}
}

// clientConn is one pipelined connection: the generator writes requests,
// a receiver goroutine reads and checks the responses in order.
type clientConn struct {
	c        net.Conn
	dec      *wire.Decoder
	out      []byte
	fifo     chan entry
	sent     uint64 // generator-owned
	received atomic.Uint64
	done     chan struct{}
	err      error // receiver's fatal error; read after done closes
}

type serveStore struct {
	g      *pmem.Group
	db     *shardeddb.DB
	srv    *server.Server
	served chan error
	conns  []*clientConn
	acked  []atomic.Uint64 // per key: seq of the last acknowledged PUT
	issued []atomic.Uint64 // per key: seq of the last issued PUT
	seqs   [serveConns]uint64
	nextID uint64
	keys   [][]byte

	maxPreload    int64 // longest single preload batch write, ns
	preloadWrites int
}

// owner is the connection (and writer id) that owns key k: writers own
// disjoint key sets, so every key's final value is known.
func owner(k uint64) uint64 { return k % serveConns }

func serveSetup(cfg config) (*serveStore, error) {
	g, db := openShards(serveShards, serveConns, serveShardWords)
	st := &serveStore{
		g: g, db: db,
		acked:  make([]atomic.Uint64, serveKeys),
		issued: make([]atomic.Uint64, serveKeys),
		keys:   make([][]byte, serveKeys),
	}
	// Preload through single-shard batches, one transaction per batch.
	sess := db.Session(0)
	batches := make([]shardeddb.WriteBatch, serveShards)
	val := make([]byte, valueSize)
	for k := uint64(0); k < serveKeys; k++ {
		key := keyOf(make([]byte, 0, keySize), cfg.seed, k)
		st.keys[k] = key
		w := owner(k)
		st.seqs[w]++
		makeValue(val, key, w, st.seqs[w])
		st.acked[k].Store(st.seqs[w])
		st.issued[k].Store(st.seqs[w])
		b := &batches[sess.ShardOf(key)]
		b.Put(key, val)
		if b.Len() == serveMaxBatch {
			st.preloadWrite(sess, b)
		}
	}
	for i := range batches {
		if batches[i].Len() > 0 {
			st.preloadWrite(sess, &batches[i])
		}
	}
	st.srv = server.New(db, server.Options{Threads: serveConns, MaxBatch: serveMaxBatch})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < serveConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			st.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		cc := &clientConn{c: c, dec: wire.NewDecoder(c, wire.Limits{}), fifo: make(chan entry, fifoDepth), done: make(chan struct{})}
		st.conns = append(st.conns, cc)
		go cc.receive(st)
	}
	// HELLO on each connection, as a client would; it also proves both
	// connections are admitted before any load starts.
	if err := st.control(wire.OpHello, func(i int) uint64 { return uint64(i + 1) }); err != nil {
		st.close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return st, nil
}

// preloadWrite applies one single-shard preload batch and empties it.
func (st *serveStore) preloadWrite(sess *shardeddb.Session, b *shardeddb.WriteBatch) {
	t0 := now()
	sess.Write(b)
	st.maxPreload = max(st.maxPreload, now()-t0)
	st.preloadWrites++
	b.Clear()
}

// control sends one op-only request on every connection, with aux(i) on
// connection i, and waits for the answers.
func (st *serveStore) control(op wire.Op, aux func(i int) uint64) error {
	sinks := make([]*sink, serveConns)
	for i, cc := range st.conns {
		sinks[i] = newSink(0, nil, nil)
		st.send(cc, entry{op: op, sink: sinks[i]}, wire.Frame{Aux: aux(i)}, now())
		if _, err := cc.flush(); err != nil {
			return fmt.Errorf("%v: %w", op, err)
		}
	}
	if err := st.drain(); err != nil {
		return fmt.Errorf("%v: %w", op, err)
	}
	for _, s := range sinks {
		if len(s.failures) > 0 {
			return s.failures[0]
		}
	}
	return nil
}

// close stops the clients and the server and waits for every goroutine.
func (st *serveStore) close() {
	for _, cc := range st.conns {
		cc.c.Close()
	}
	for _, cc := range st.conns {
		<-cc.done
	}
	st.srv.Stop()
	st.srv.Wait()
	if st.served != nil {
		<-st.served
	}
}

// send queues e and appends its request frame to the connection's output.
func (st *serveStore) send(cc *clientConn, e entry, f wire.Frame, t int64) {
	st.nextID++
	e.reqID = st.nextID
	e.sent = t
	f.Op, f.ReqID = e.op, e.reqID
	cc.fifo <- e
	cc.out = wire.AppendFrame(cc.out, &f)
	cc.sent++
}

// flush writes the connection's queued frames with one write call and
// reports the bytes written.
func (cc *clientConn) flush() (int, error) {
	n := len(cc.out)
	if n == 0 {
		return 0, nil
	}
	_, err := cc.c.Write(cc.out)
	cc.out = cc.out[:0]
	return n, err
}

// drain waits until every sent request has been answered.
func (st *serveStore) drain() error {
	deadline := now() + drainWaitNs
	for _, cc := range st.conns {
		for cc.received.Load() < cc.sent {
			select {
			case <-cc.done:
				return fmt.Errorf("connection closed with %d requests unanswered: %v", cc.sent-cc.received.Load(), cc.err)
			default:
			}
			if now() > deadline {
				return fmt.Errorf("%d requests unanswered after %v", cc.sent-cc.received.Load(), time.Duration(drainWaitNs))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return nil
}

// receive reads responses in order, matches each to the request at the
// head of the FIFO, checks it, and records its latency from due time.
func (cc *clientConn) receive(st *serveStore) {
	defer close(cc.done)
	var f wire.Frame
	for {
		t0 := now()
		if err := cc.dec.ReadFrame(&f); err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) {
				cc.err = err
			}
			return
		}
		t := now()
		var e entry
		select {
		case e = <-cc.fifo:
		default:
			cc.err = fmt.Errorf("response %v reqid %d with no request in flight", f.Op, f.ReqID)
			return
		}
		s := e.sink
		s.log.record("wire.Decoder.ReadFrame", e.reqID, e.reqID, t0, t)
		s.bytesIn += int64(wire.HeaderSize + len(f.Key) + len(f.Val))
		s.checked++
		if err := st.checkResponse(&e, &f, t); err != nil {
			s.failures = append(s.failures, err)
		}
		cc.received.Add(1)
	}
}

// checkResponse verifies that a response answers the request at the head of
// the FIFO, that it succeeded, and that a GET saw an intact value of the
// key's owner no older than the last PUT acknowledged before it was sent.
func (st *serveStore) checkResponse(e *entry, f *wire.Frame, t int64) error {
	s := e.sink
	if f.Op != e.op|wire.RespBit || f.ReqID != e.reqID {
		return fmt.Errorf("response %v reqid %d out of order: expected %v reqid %d", f.Op, f.ReqID, e.op|wire.RespBit, e.reqID)
	}
	if status := f.Status(); status != wire.StatusOK {
		return fmt.Errorf("%v reqid %d: status %d %q", e.op, e.reqID, status, f.Val)
	}
	k := uint64(e.key)
	switch e.op {
	case wire.OpGet:
		s.get[e.win].add(t - e.due)
		s.log.record("request.GET", e.reqID, 0, e.due, t)
		s.log.record("net.roundtrip", e.reqID, e.reqID, e.sent, t)
		return checkValue(st.keys[k], f.Val, owner(k), e.seq, st.issued[k].Load())
	case wire.OpPut:
		s.put[e.win].add(t - e.due)
		s.puts.tick(t)
		s.log.record("request.PUT", e.reqID, 0, e.due, t)
		s.log.record("net.roundtrip", e.reqID, e.reqID, e.sent, t)
		st.acked[k].Store(e.seq)
	}
	return nil
}

// genStats is what the generator measured during one step.
type genStats struct {
	late    []samples // per window: wake-up time minus due time, per request
	backlog []uint64  // per window: requests unanswered when it ended
	frames  int
	writes  int
	bytes   int64
	busyNs  int64 // time awake (building and writing frames)
	elapsed int64
	sample  []byte // leading request frames, when asked for
}

// step offers rate ops/s for the step's windows from an open-loop Poisson
// generator. It runs on a locked OS thread and sleeps with nanosleep: Go's
// timer-based sleep overshoots by up to a millisecond under load, which
// would be charged to the server as queueing delay.
func (st *serveStore) step(rate float64, windows int, sinks []*sink, rng *rand.Rand, zipf *load.Zipf, keepFrames bool, log *spanLog) (genStats, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	gs := genStats{late: make([]samples, windows), backlog: make([]uint64, windows)}
	val := make([]byte, valueSize)
	start := now()
	end := start + int64(windows)*windowNs
	next := start + int64(rng.ExpFloat64()/rate*1e9)
	win := 0
	var werr error
	for next < end && werr == nil {
		t := now()
		for next <= t && next < end {
			for w := int((next - start) / windowNs); win < w; win++ {
				gs.backlog[win] = st.unanswered()
			}
			k := zipf.Next()
			key := st.keys[k]
			var ci int
			e := entry{key: uint32(k), due: next, win: int32(win)}
			var f wire.Frame
			if rng.Intn(2) == 0 {
				ci = rng.Intn(serveConns)
				e.op, e.seq = wire.OpGet, st.acked[k].Load()
				f.Key = key
			} else {
				w := owner(k)
				ci = int(w)
				st.seqs[w]++
				e.op, e.seq = wire.OpPut, st.seqs[w]
				st.issued[k].Store(e.seq)
				makeValue(val, key, w, e.seq)
				f.Key, f.Val = key, val
			}
			e.sink = sinks[ci]
			cc := st.conns[ci]
			gs.late[win].add(t - next)
			before := len(cc.out)
			st.send(cc, e, f, t)
			if keepFrames && len(gs.sample) < wireSample {
				gs.sample = append(gs.sample, cc.out[before:]...)
			}
			gs.frames++
			next += int64(rng.ExpFloat64() / rate * 1e9)
		}
		for _, cc := range st.conns {
			n, err := cc.flush()
			if n > 0 {
				gs.writes++
				gs.bytes += int64(n)
			}
			if err != nil {
				werr = fmt.Errorf("write: %w", err)
			}
		}
		awake := now()
		gs.busyNs += awake - t
		log.record("gen.wake", 0, 0, t, awake)
		if d := next - awake; d > 0 && next < end {
			sleepNs(d)
		}
	}
	for ; win < windows; win++ {
		gs.backlog[win] = st.unanswered()
	}
	gs.elapsed = now() - start
	return gs, werr
}

func (st *serveStore) unanswered() uint64 {
	var n uint64
	for _, cc := range st.conns {
		n += cc.sent - cc.received.Load()
	}
	return n
}

// stepResult is one measured open-loop step, merged over the connections.
type stepResult struct {
	gen      genStats
	get, put []samples // per window
	checked  int
	failures []error
	bytesIn  int64
}

// tracing is what a traced phase keeps across its steps: a PUT completion
// clock, and span logs for the generator and each connection's receiver.
type tracing struct {
	puts *opClock
	logs []*spanLog
}

func newTracing() *tracing {
	t := &tracing{puts: newOpClock()}
	for i := 0; i <= serveConns; i++ {
		t.logs = append(t.logs, newSpanLog(true))
	}
	return t
}

// runStep offers rate for the given number of windows, waits for every
// answer, and merges the connections' results. A traced step (tr non-nil)
// also records spans, PUT completions and a sample of request frames.
func (st *serveStore) runStep(rate float64, windows int, rng *rand.Rand, zipf *load.Zipf, tr *tracing) (*stepResult, error) {
	r := &stepResult{get: make([]samples, windows), put: make([]samples, windows)}
	genLog := (*spanLog)(nil)
	sinks := make([]*sink, serveConns)
	for i := range sinks {
		sinks[i] = newSink(windows, nil, nil)
	}
	if tr != nil {
		genLog = tr.logs[0]
		for i := range sinks {
			sinks[i].puts, sinks[i].log = tr.puts, tr.logs[i+1]
		}
	}
	gs, err := st.step(rate, windows, sinks, rng, zipf, tr != nil, genLog)
	if err != nil {
		return nil, err
	}
	if err := st.drain(); err != nil {
		return nil, err
	}
	r.gen = gs
	for _, s := range sinks {
		for w := 0; w < windows; w++ {
			r.get[w].merge(&s.get[w])
			r.put[w].merge(&s.put[w])
		}
		r.checked += s.checked
		r.failures = append(r.failures, s.failures...)
		r.bytesIn += s.bytesIn
	}
	return r, nil
}

// fixedRun is the fixed-rate phase: steps at one rate, their windows
// concatenated, each window marked valid when the generator kept to its
// schedule there. In a window where the generator's own lateness p99
// exceeded maxLateP99Us the whole process was stalled (the host or the
// runtime did not run it), so the window measured the machine, not the
// server: the latency metrics leave it out, and the phase runs on until it
// has the windows it wants or has run fixedCap times as many.
type fixedRun struct {
	stepResult
	valid    []bool
	nValid   int
	*tracing // nil when untraced
}

func (st *serveStore) fixedPhase(want int, rng *rand.Rand, zipf *load.Zipf, tr *tracing) (*fixedRun, error) {
	f := &fixedRun{tracing: tr}
	for f.nValid < want && len(f.valid) < fixedCap*want {
		if err := st.fixedChunk(f, rng, zipf, false); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// fixedChunk adds chunkWindows windows at the fixed rate to f, after one
// discarded window when settle is set (the step before ran another rate).
func (st *serveStore) fixedChunk(f *fixedRun, rng *rand.Rand, zipf *load.Zipf, settle bool) error {
	if settle {
		r, err := st.runStep(fixedRate, 1, rng, zipf, nil)
		if err != nil {
			return err
		}
		f.checked += r.checked
		f.failures = append(f.failures, r.failures...)
	}
	r, err := st.runStep(fixedRate, chunkWindows, rng, zipf, f.tracing)
	if err != nil {
		return err
	}
	for w := range r.get {
		late99, err := quantile(sortedCopy(r.gen.late[w].ns), 0.99)
		ok := err == nil && late99 <= maxLateP99Us*1e3
		f.valid = append(f.valid, ok)
		if ok {
			f.nValid++
		}
	}
	f.get = append(f.get, r.get...)
	f.put = append(f.put, r.put...)
	f.gen.late = append(f.gen.late, r.gen.late...)
	f.gen.frames += r.gen.frames
	f.gen.writes += r.gen.writes
	f.gen.bytes += r.gen.bytes
	f.gen.busyNs += r.gen.busyNs
	f.gen.elapsed += r.gen.elapsed
	if f.gen.sample == nil {
		f.gen.sample = r.gen.sample
	}
	f.checked += r.checked
	f.failures = append(f.failures, r.failures...)
	f.bytesIn += r.bytesIn
	return nil
}

// pick returns the valid windows of ws, or all of them when none is valid
// (the run is then invalid, but its figures still print).
func (f *fixedRun) pick(ws []samples) []samples {
	if f.nValid == 0 {
		return ws
	}
	var out []samples
	for i, ok := range f.valid {
		if ok {
			out = append(out, ws[i])
		}
	}
	return out
}

// wireCost times the wire codec on a run's own request frames: encoding
// them again from decoded frames, and decoding the byte stream.
func wireCost(stream []byte) (encNs, decNs float64) {
	var frames []wire.Frame
	dec := wire.NewDecoder(bytes.NewReader(stream), wire.Limits{})
	for {
		var f wire.Frame
		if err := dec.ReadFrame(&f); err != nil {
			break
		}
		f.Key = slices.Clone(f.Key)
		f.Val = slices.Clone(f.Val)
		frames = append(frames, f)
	}
	if len(frames) == 0 {
		return 0, 0
	}
	const rounds = 20
	buf := make([]byte, 0, len(stream))
	t0 := now()
	for r := 0; r < rounds; r++ {
		buf = buf[:0]
		for i := range frames {
			buf = wire.AppendFrame(buf, &frames[i])
		}
	}
	t1 := now()
	var f wire.Frame
	for r := 0; r < rounds; r++ {
		d := wire.NewDecoder(bytes.NewReader(buf), wire.Limits{})
		for d.ReadFrame(&f) == nil {
		}
	}
	t2 := now()
	n := float64(rounds * len(frames))
	return float64(t1-t0) / n, float64(t2-t1) / n
}

func runServe(cfg config) (*result, error) {
	res := &result{}
	var setups []float64
	var st *serveStore
	for i := 0; i < minSetup; i++ {
		if st != nil {
			st.close()
			st = nil
		}
		release()
		t0 := now()
		var err error
		st, err = serveSetup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, float64(now()-t0)/1e9)
	}
	rng := rand.New(rand.NewSource(cfg.seed*15485863 + 1))
	zipf := load.NewZipf(rand.New(rand.NewSource(cfg.seed*15485863+2)), serveKeys, theta, load.Zetan(serveKeys, theta))
	fail := func(err error) (*result, error) {
		st.close()
		return nil, err
	}
	warm, err := st.runStep(fixedRate, int(warmupNs/windowNs), rng, zipf, nil)
	if err != nil {
		return fail(fmt.Errorf("warm-up: %w", err))
	}
	res.checkMany(warm.checked, warm.failures)

	// The latency metrics: a fixed offered rate, timed from due time, until
	// half the run's seconds' worth of windows are valid. Untraced, the
	// fixed-rate steps are interleaved with the max-rate ladder, so that
	// they sample the whole run and not one stretch of the machine's load.
	// The traced run measures them in one stretch, for the counters, and
	// then as many again with the tracer attached.
	want := max(1, int(cfg.seconds*1e9/2/windowNs))
	if err := st.control(wire.OpStats, func(int) uint64 { return wire.StatsReset }); err != nil {
		return fail(err)
	}
	var fixed, traced *fixedRun
	var win window
	var maxRate float64
	var pools0, pools1 []pmem.StatsSnapshot
	var pm0, pm1 pmem.StatsSnapshot
	var rt0, rt1 runtimeCounters
	var srvFixed server.StatsSnapshot
	if cfg.trace {
		pools0, pm0, rt0 = poolStats(st.g), st.g.Stats(), readRuntime()
		fixed, err = st.fixedPhase(want, rng, zipf, nil)
		if err != nil {
			return fail(fmt.Errorf("fixed rate: %w", err))
		}
		pools1, pm1, rt1 = poolStats(st.g), st.g.Stats(), readRuntime()
		srvFixed = st.srv.Stats()
		tr := attachTracer(st.g)
		traced, err = st.fixedPhase(want, rng, zipf, newTracing())
		win = tr.detach(st.g)
		if err != nil {
			return fail(fmt.Errorf("traced fixed rate: %w", err))
		}
		res.checkMany(traced.checked, traced.failures)
	} else {
		fixed = &fixedRun{}
		coarse, err := st.probeLadder(res, rng, zipf, func() error { return st.fixedChunk(fixed, rng, zipf, true) })
		if err != nil {
			return fail(fmt.Errorf("max-rate probe: %w", err))
		}
		for fixed.nValid < want && len(fixed.valid) < fixedCap*want {
			if err := st.fixedChunk(fixed, rng, zipf, true); err != nil {
				return fail(fmt.Errorf("fixed rate: %w", err))
			}
		}
		var probeErr error
		maxRate = searchMaxRate(coarse, limitUs, func(rate float64) rung {
			r, err := st.probeStep(res, rate, refineWindows, rng, zipf)
			if err != nil {
				probeErr = err
				return rung{rate: rate, backed: true}
			}
			return summarize(rate, []*stepResult{r})
		})
		if probeErr != nil {
			return fail(fmt.Errorf("max-rate probe: %w", probeErr))
		}
	}
	res.checkMany(fixed.checked, fixed.failures)
	fmt.Printf("# fixed rate %d ops/s: %d of %d windows valid\n", fixedRate, fixed.nValid, len(fixed.valid))
	if fixed.nValid < minValid {
		res.invalidate("the generator kept to its schedule in only %d of %d windows", fixed.nValid, len(fixed.valid))
	}
	srvStats := st.srv.Stats()
	st.close()
	res.check(errorIf(srvStats.Errors != 0, "server counted %d errors", srvStats.Errors))

	// A run whose generator could not keep to its schedule measured the
	// machine's scheduler, not the server: it is invalid, not slow.
	lateAll := all(fixed.gen.late)
	late50, _ := quantile(sortedCopy(lateAll.ns), 0.5)
	late99, err := windowed(0.99, fixed.gen.late)
	if err != nil {
		res.invalidate("generator lateness: %v", err)
	}
	late50, late99 = late50/1e3, late99/1e3
	fmt.Printf("# generator lateness at %d ops/s: p50 %.1f us, p99 %.1f us (n=%d)\n", fixedRate, late50, late99, lateAll.n())
	if late50 > maxLateP50Us {
		res.invalidate("generator lateness p50 %.1f us exceeds %d us", late50, maxLateP50Us)
	}

	// Stop traffic, reopen, and check every key holds its last acknowledged value.
	probe := func(s *shardeddb.Session) error {
		v, ok := s.Get(st.keys[0])
		seq := st.acked[0].Load()
		return checkRead(st.keys[0], v, ok, owner(0), seq, seq)
	}
	recLog := newSpanLog(cfg.trace)
	db, recovers := recoverStore(res, st.g, serveConns, reopens, probe, recLog)
	sess := db.Session(0)
	for k := uint64(0); k < serveKeys; k++ {
		v, ok := sess.Get(st.keys[k])
		seq := st.acked[k].Load()
		res.check(checkRead(st.keys[k], v, ok, owner(k), seq, seq))
	}

	gets, puts := fixed.pick(fixed.get), fixed.pick(fixed.put)
	ops := float64(all(fixed.get, fixed.put).n())
	if !cfg.trace {
		// max_rate_ops_s is a diagnostic: a host stall through the whole
		// ladder leaves it at 0 without touching the fixed-rate figures.
		best := maxRate
		if best == 0 {
			fmt.Printf("# max rate: no offered rate met the %d us latency limit\n", limitUs)
		}
		res.add("setup_s", median(setups), "s", len(setups))
		res.add("ops_s", ops/(float64(fixed.gen.elapsed)/1e9), "1/s", int(ops))
		res.add("max_rate_ops_s", best, "1/s", ladderRungs*ladderPass+rateBisects)
		res.tailPair("get", gets)
		res.tailPair("put", puts)
		res.add("recover_s", median(recovers), "s", reopens)
		return res, nil
	}
	clientP50, _ := quantile(sortedCopy(all(gets, puts).ns), 0.5)
	clientP50 /= 1e3
	nPuts := float64(all(fixed.put).n())
	res.addPmem(pm1.Sub(pm0), nPuts)
	res.addEngine(win, traced.puts.since(win.start), 0)
	res.add("redodb.grow_stall_ms", float64(st.maxPreload)/1e6, "ms", st.preloadWrites)
	res.addShards(pools0, pools1, nPuts)
	svc50, svc99 := float64(srvFixed.All.P50Ns)/1e3, float64(srvFixed.All.P99Ns)/1e3
	res.add("server.service_p50_us", svc50, "us", int(srvFixed.All.Count))
	res.add("server.service_p99_us", svc99, "us", int(srvFixed.All.Count))
	res.add("server.share_pct", 100*svc50/clientP50, "%", 0)
	enc, dec := wireCost(traced.gen.sample)
	res.add("wire.encode_ns_per_frame", enc, "ns", 0)
	res.add("wire.decode_ns_per_frame", dec, "ns", 0)
	res.add("wire.bytes_per_op", float64(fixed.gen.bytes+fixed.bytesIn)/ops, "B/op", 0)
	res.add("net.residual_p50_us", clientP50-svc50-late50, "us", 0)
	res.add("net.frames_per_write", ratio(float64(fixed.gen.frames), float64(fixed.gen.writes)), "count", 0)
	res.addRuntime(rt0, rt1, ops)
	res.add("gen.late_p50_us", late50, "us", lateAll.n())
	res.add("gen.late_p99_us", late99, "us", lateAll.n())
	res.add("bench.self_pct", 100*float64(fixed.gen.busyNs)/float64(fixed.gen.elapsed), "%", 0)
	tracedP50, _ := quantile(sortedCopy(all(traced.pick(traced.get), traced.pick(traced.put)).ns), 0.5)
	res.add("trace.overhead_pct", 100*(tracedP50/1e3/clientP50-1), "%", 0)
	return res, writeSpans(cfg, append(traced.logs, recLog)...)
}

// probeLadder offers every rate of the coarse ladder for probeWindows
// windows, in ladderPass interleaved passes, calling between after every
// visitsPerChunk visits, and summarizes each rate over all of its windows.
func (st *serveStore) probeLadder(res *result, rng *rand.Rand, zipf *load.Zipf, between func() error) ([]rung, error) {
	rates := ladder()
	visits := make([][]*stepResult, len(rates))
	n := 0
	for pass := 0; pass < ladderPass; pass++ {
		for i, rate := range rates {
			r, err := st.probeStep(res, rate, probeWindows, rng, zipf)
			if err != nil {
				return nil, err
			}
			visits[i] = append(visits[i], r)
			if n++; n%visitsPerChunk == 0 {
				if err := between(); err != nil {
					return nil, err
				}
			}
		}
	}
	rungs := make([]rung, len(rates))
	for i, rate := range rates {
		rungs[i] = summarize(rate, visits[i])
	}
	return rungs, nil
}

// probeStep offers rate for the given windows and fails on any error.
func (st *serveStore) probeStep(res *result, rate float64, windows int, rng *rand.Rand, zipf *load.Zipf) (*stepResult, error) {
	r, err := st.runStep(rate, windows, rng, zipf, nil)
	if err != nil {
		return nil, err
	}
	res.checkMany(r.checked, r.failures)
	if len(r.failures) > 0 {
		return nil, fmt.Errorf("%.0f ops/s: %w", rate, r.failures[0])
	}
	return r, nil
}

// summarize makes a rung of one rate's visits: the median over windows of
// each window's median latency, and whether the backlog was growing. The
// backlog grows when the generator outruns the server: a visit whose
// outstanding requests grew faster than backlogShare of the offered rate
// (median over visits) did not keep up, whatever its latency.
func summarize(rate float64, visits []*stepResult) rung {
	var ws []samples
	var growth []float64
	for _, v := range visits {
		for w := range v.get {
			var s samples
			s.merge(&v.get[w])
			s.merge(&v.put[w])
			ws = append(ws, s)
		}
		b := v.gen.backlog
		span := float64(len(b)-1) * windowNs / 1e9
		growth = append(growth, (float64(b[len(b)-1])-float64(b[0]))/span)
	}
	p50, _ := windowed(0.5, ws)
	p99, _ := windowed(0.99, ws)
	r := rung{rate: rate, lat: p50 / 1e3, backed: median(growth) > backlogShare*rate}
	fmt.Printf("# rate %6.0f ops/s: p50 %8.1f us, p99 %8.1f us over %d windows, backlog growth %.0f/s, pass %v\n",
		rate, r.lat, p99/1e3, len(ws), median(growth), r.pass(limitUs))
	return r
}
