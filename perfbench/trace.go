package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"

	"repro/internal/obs"
	"repro/internal/pmem"
)

// Tracing. The end-to-end metrics come from untraced runs; the traced run
// (-trace 1) attaches an obs.Tracer to the pmem group, keeps spans that the
// benchmark's own code records around each call into the system, and turns
// both into per-layer ratios. Spans stay in memory and are written out when
// the run ends.

// tracerEvents is the tracer ring size. Ratios are taken over the events the
// ring still holds at the end (the retained window), so it only needs to
// hold enough operations for stable ratios, not the whole run.
const tracerEvents = 1 << 19

// spansKept bounds each span log: it keeps the most recent spans, which
// cover the tracer's retained window.
const spansKept = 1 << 15

type span struct {
	name       string
	id, parent uint64
	start, end int64
}

// spanLog is one goroutine's span ring; nil records nothing.
type spanLog struct {
	ring []span
	n    uint64
}

func newSpanLog(on bool) *spanLog {
	if !on {
		return nil
	}
	return &spanLog{ring: make([]span, spansKept)}
}

func (l *spanLog) record(name string, id, parent uint64, start, end int64) {
	if l == nil {
		return
	}
	l.ring[l.n%spansKept] = span{name, id, parent, start, end}
	l.n++
}

func (l *spanLog) spans() []span {
	if l == nil {
		return nil
	}
	if l.n <= spansKept {
		return l.ring[:l.n]
	}
	i := l.n % spansKept
	return append(append([]span(nil), l.ring[i:]...), l.ring[:i]...)
}

// writeSpans writes every log's spans as CSV to dir/<workload>-<seed>.spans.csv.
func writeSpans(cfg config, logs ...*spanLog) error {
	if cfg.spanDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-%d.spans.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name,id,parent,start_ns,end_ns")
	for _, l := range logs {
		for _, s := range l.spans() {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d\n", s.name, s.id, s.parent, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("# spans written to %s\n", path)
	return nil
}

// opClock counts completed operations per millisecond of benchmark time, so
// the number of operations inside the tracer's retained window can be read
// off without keeping a timestamp per operation.
type opClock struct {
	mu    sync.Mutex
	base  int64
	perMs []uint32
}

func newOpClock() *opClock { return &opClock{base: now()} }

func (c *opClock) tick(t int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ms := int((t - c.base) / 1e6)
	if ms < 0 {
		ms = 0
	}
	for len(c.perMs) <= ms {
		c.perMs = append(c.perMs, 0)
	}
	c.perMs[ms]++
}

// since counts the operations completed at or after benchmark time t.
func (c *opClock) since(t int64) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := int((t - c.base) / 1e6)
	if first < 0 {
		first = 0
	}
	var n float64
	for ms := first; ms < len(c.perMs); ms++ {
		n += float64(c.perMs[ms])
	}
	return n
}

// window is what the tracer still held when a traced phase ended.
type window struct {
	start, end int64 // benchmark times of the oldest retained event and of the phase end
	counts     map[obs.Kind]uint64
	events     int
}

type tracerHandle struct {
	tr   *obs.Tracer
	base int64 // benchmark time the tracer's clock started at
}

// attachTracer attaches a fresh tracer to g, which must be quiescent.
func attachTracer(g *pmem.Group) tracerHandle {
	tr := obs.NewTracer(tracerEvents)
	h := tracerHandle{tr: tr, base: now()}
	g.SetTracer(tr)
	return h
}

// detach reads the retained window and detaches the tracer; g must be
// quiescent.
func (h tracerHandle) detach(g *pmem.Group) window {
	snap := h.tr.Snapshot()
	g.SetTracer(nil)
	w := window{start: h.base, end: now(), counts: snap.KindCounts(), events: len(snap.Events)}
	if len(snap.Events) > 0 {
		w.start = h.base + snap.Events[0].TS
	}
	return w
}

func (w window) count(k obs.Kind) float64 { return float64(w.counts[k]) }

// runtimeCounters samples the Go runtime's allocation and CPU accounting.
type runtimeCounters struct {
	allocs      uint64
	gcCPU, cpus float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocs: s[0].Value.Uint64(),
		gcCPU:  s[1].Value.Float64(),
		cpus:   s[2].Value.Float64(),
	}
}

// addRuntime reports allocations per operation and the share of CPU time
// the garbage collector took between two samples.
func (r *result) addRuntime(before, after runtimeCounters, ops float64) {
	r.add("runtime.allocs_per_op", ratio(float64(after.allocs-before.allocs), ops), "count/op", 0)
	r.add("runtime.gc_cpu_frac", ratio(after.gcCPU-before.gcCPU, after.cpus-before.cpus), "ratio", 0)
}

// addPmem reports the exact persistence-instruction counters per write
// operation (reads issue none).
func (r *result) addPmem(d pmem.StatsSnapshot, writes float64) {
	r.add("pmem.pwbs_per_op", ratio(float64(d.PWBs), writes), "count/op", 0)
	r.add("pmem.pfences_per_op", ratio(float64(d.PFences), writes), "count/op", 0)
	r.add("pmem.psyncs_per_op", ratio(float64(d.PSyncs), writes), "count/op", 0)
	r.add("pmem.ntstores_per_op", ratio(float64(d.NTStores), writes), "count/op", 0)
	r.add("pmem.words_copied_per_op", ratio(float64(d.WordsCopied), writes), "count/op", 0)
}

// addEngine reports the redo, palloc, detect and shardeddb ratios the
// tracer's window gives; writes and puts are the operations completed
// inside the window.
func (r *result) addEngine(w window, writes, detectable float64) {
	r.add("redo.updates_per_combine", ratio(writes, w.count(obs.KindCombineBegin)), "count", 0)
	r.add("redo.replays_per_update", ratio(w.count(obs.KindReplayBegin), writes), "count/op", 0)
	r.add("palloc.allocs_per_op", ratio(w.count(obs.KindAlloc), writes), "count/op", 0)
	r.add("palloc.frees_per_op", ratio(w.count(obs.KindFree), writes), "count/op", 0)
	r.add("detect.receipts_per_put", ratio(w.count(obs.KindReceipt), detectable), "count/op", 0)
	r.add("detect.dedup_hits", w.count(obs.KindDedupHit), "count", 0)
	r.add("shardeddb.intents_per_put", ratio(w.count(obs.KindIntentPublish), writes), "count/op", 0)
	fmt.Printf("# trace window: %d events over %.3f s, %.0f writes\n", w.events, float64(w.end-w.start)/1e9, writes)
}

// poolStats snapshots every pool of g: the coordinator first, then the shards.
func poolStats(g *pmem.Group) []pmem.StatsSnapshot {
	out := make([]pmem.StatsSnapshot, g.Len())
	for i := range out {
		out[i] = g.Pool(i).Stats()
	}
	return out
}

// addShards reports the coordinator pool's write-backs per write and how
// unevenly write-backs spread over the shard pools (max over mean).
func (r *result) addShards(before, after []pmem.StatsSnapshot, writes float64) {
	r.add("shardeddb.coord_pwbs_per_op", ratio(float64(after[0].PWBs-before[0].PWBs), writes), "count/op", 0)
	var sum, top float64
	for i := 1; i < len(after); i++ {
		d := float64(after[i].PWBs - before[i].PWBs)
		sum += d
		top = max(top, d)
	}
	r.add("shardeddb.shard_pwb_skew", ratio(top, sum/float64(len(after)-1)), "ratio", 0)
}
