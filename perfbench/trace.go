package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxDumpSpans bounds the spans kept for the Chrome trace dump. Every span
// feeds the aggregates; past this many, spans are counted but not dumped,
// so a paced run's million store.missing calls do not become a 100 MB file.
const maxDumpSpans = 200_000

// Root spans run on one of two lanes per node: the medium's serialized
// event callbacks, or the benchmark's own calls into the node (Post,
// lab.Run). At most one root per lane and node is open at a time.
const (
	laneEvents = 1
	laneBench  = 2
)

// spanRec is one finished boundary span. Times are nanoseconds since the
// tracer's base. Parent is the id of the enclosing boundary span on the
// same node and goroutine, or 0; lane is the parent's lane, or 0.
type spanRec struct {
	id, parent uint64
	node, lane int
	name       string
	start, end int64
}

// spanAgg accumulates every span of one (node, name).
type spanAgg struct {
	count   uint64
	totalNs int64
	selfNs  int64
	bytes   uint64 // payload bytes the boundary carried (mpc.send, mpc.beacon)
	flagged uint64 // store.missing calls that returned nothing
}

// openRoot is a root span still running. Leaf spans called from inside it
// become its children.
type openRoot struct {
	id         uint64
	node, lane int
	name       string
	start      int64
	childNs    int64
}

type aggKey struct {
	node int
	name string
}

// tracer records boundary spans in memory for the traced run and writes
// them out when the run ends. Untraced runs install no wrappers, and a nil
// *tracer records no root spans.
type tracer struct {
	base  time.Time
	nodes []string
	// enabled gates recording to the measured window, so set-up traffic
	// stays out of the per-message figures.
	enabled atomic.Bool
	// openPerNode counts running root spans per node, so a leaf span on a
	// node with none open skips the stack walk.
	openPerNode []atomic.Int32

	mu         sync.Mutex
	nextID     uint64
	open       map[[2]int]*openRoot // by (node, lane)
	agg        map[aggKey]*spanAgg
	dump       []spanRec
	undumped   uint64
	violations uint64
}

func newTracer(nodes ...string) *tracer {
	return &tracer{
		base:        time.Now(),
		nodes:       nodes,
		openPerNode: make([]atomic.Int32, len(nodes)),
		open:        make(map[[2]int]*openRoot),
		agg:         make(map[aggKey]*spanAgg),
	}
}

// now returns nanoseconds since the tracer's base on the monotonic clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// rootFuncs are the functions root spans run their work inside, by lane,
// named without their package path (main, or sos/perfbench under test).
var rootFuncs = map[string]int{
	"(*timedEvents).event": laneEvents,
	"(*tracer).bench":      laneBench,
}

// shortName strips the package path from a function name:
// "sos/perfbench.(*tracer).bench" becomes "(*tracer).bench".
func shortName(name string) string {
	name = name[strings.LastIndexByte(name, '/')+1:]
	return name[strings.IndexByte(name, '.')+1:]
}

// laneOfPC caches which lane, if any, a program counter's function opens.
var laneOfPC sync.Map // uintptr → int

// callerLane returns the lane of the innermost root function on the
// calling goroutine's stack, or 0 when the call is not inside one (a
// heartbeat timer, say).
func callerLane() int {
	var pcs [64]uintptr
	n := runtime.Callers(3, pcs[:])
	for _, pc := range pcs[:n] {
		v, ok := laneOfPC.Load(pc)
		if !ok {
			lane := 0
			if fn := runtime.FuncForPC(pc - 1); fn != nil {
				lane = rootFuncs[shortName(fn.Name())]
			}
			laneOfPC.Store(pc, lane)
			v = lane
		}
		if lane := v.(int); lane != 0 {
			return lane
		}
	}
	return 0
}

// bench runs fn, one of the benchmark's own calls into node, as a root
// span on the bench lane. With a nil tracer it just runs fn.
//
//go:noinline
func (t *tracer) bench(node int, name string, size int, fn func()) {
	r := t.beginRoot(node, laneBench, name)
	fn()
	t.endRoot(r, size)
}

// beginRoot opens a root span, or returns nil outside the window.
func (t *tracer) beginRoot(node, lane int, name string) *openRoot {
	if t == nil || !t.enabled.Load() {
		return nil
	}
	r := &openRoot{node: node, lane: lane, name: name}
	t.mu.Lock()
	t.nextID++
	r.id = t.nextID
	t.open[[2]int{node, lane}] = r
	t.mu.Unlock()
	t.openPerNode[node].Add(1)
	r.start = t.now()
	return r
}

// endRoot closes a root span; its self time is its duration less the time
// its children covered.
func (t *tracer) endRoot(r *openRoot, size int) {
	if r == nil {
		return
	}
	end := t.now()
	t.openPerNode[r.node].Add(-1)
	t.mu.Lock()
	delete(t.open, [2]int{r.node, r.lane})
	dur := end - r.start
	if r.childNs > dur {
		t.violations++
	}
	t.add(spanRec{id: r.id, node: r.node, lane: r.lane, name: r.name, start: r.start, end: end}, dur-r.childNs, size, false)
	t.mu.Unlock()
}

// leaf records a span that encloses no other boundary span: a call into
// the store or out through the medium, timed by the caller as [start, end).
func (t *tracer) leaf(node int, name string, start, end int64, size int, flagged bool) {
	if !t.enabled.Load() {
		return
	}
	lane := 0
	if t.openPerNode[node].Load() > 0 {
		lane = callerLane()
	}
	t.mu.Lock()
	t.nextID++
	rec := spanRec{id: t.nextID, node: node, name: name, start: start, end: end}
	if r := t.open[[2]int{node, lane}]; lane != 0 && r != nil {
		rec.parent, rec.lane = r.id, lane
		r.childNs += end - start
	}
	t.add(rec, end-start, size, flagged)
	t.mu.Unlock()
}

// add files one finished span; t.mu must be held.
func (t *tracer) add(rec spanRec, selfNs int64, size int, flagged bool) {
	a := t.agg[aggKey{rec.node, rec.name}]
	if a == nil {
		a = &spanAgg{}
		t.agg[aggKey{rec.node, rec.name}] = a
	}
	a.count++
	a.totalNs += rec.end - rec.start
	a.selfNs += selfNs
	a.bytes += uint64(size)
	if flagged {
		a.flagged++
	}
	if len(t.dump) < maxDumpSpans {
		t.dump = append(t.dump, rec)
	} else {
		t.undumped++
	}
}

// sum totals one span name across all nodes.
func (t *tracer) sum(name string) spanAgg {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s spanAgg
	for k, a := range t.agg {
		if k.name == name {
			s.count += a.count
			s.totalNs += a.totalNs
			s.selfNs += a.selfNs
			s.bytes += a.bytes
			s.flagged += a.flagged
		}
	}
	return s
}

// selfTable prints self time by layer (the span name's first dot-separated
// part) and returns the number of spans whose children covered more time
// than the span itself.
func (t *tracer) selfTable(w io.Writer, workload string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type row struct {
		spans           uint64
		totalNs, selfNs int64
	}
	layers := map[string]*row{}
	var allSelf int64
	for k, a := range t.agg {
		layer, _, _ := strings.Cut(k.name, ".")
		r := layers[layer]
		if r == nil {
			r = &row{}
			layers[layer] = r
		}
		r.spans += a.count
		r.totalNs += a.totalNs
		r.selfNs += a.selfNs
		allSelf += a.selfNs
	}
	names := make([]string, 0, len(layers))
	for n := range layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "self time by layer, %s (spans dumped %d, not dumped %d, child-overlap violations %d)\n",
		workload, len(t.dump), t.undumped, t.violations)
	fmt.Fprintf(w, "  %-8s %12s %12s %12s %8s\n", "layer", "spans", "total_ms", "self_ms", "self_%")
	for _, n := range names {
		r := layers[n]
		share := 0.0
		if allSelf > 0 {
			share = 100 * float64(r.selfNs) / float64(allSelf)
		}
		fmt.Fprintf(w, "  %-8s %12d %12.1f %12.1f %8.1f\n", n, r.spans,
			float64(r.totalNs)/1e6, float64(r.selfNs)/1e6, share)
	}
	return t.violations
}

// writeChrome dumps the kept spans as Chrome trace_event JSON, the format
// the nodes' /debug/trace endpoint serves: one process per node, one
// thread per lane (0 for spans outside any root), complete ("X") events
// with microsecond ts/dur, and each span's id and parent in args.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	w.WriteString(`{"traceEvents":[`)
	for i, n := range t.nodes {
		if i > 0 {
			w.WriteString(",")
		}
		fmt.Fprintf(w, "\n"+`{"name":"process_name","ph":"M","pid":%d,"args":{"name":%q}}`, i+1, n)
	}
	for _, s := range t.dump {
		fmt.Fprintf(w, ",\n"+`{"name":%q,"ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{"id":%d,"parent":%d}}`,
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.node+1, s.lane, s.id, s.parent)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
