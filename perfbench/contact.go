package main

import (
	"bytes"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"sos/internal/cloud"
	"sos/internal/core"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/msg"
	"sos/internal/netmedium"
	"sos/internal/pki"
	"sos/internal/secure"
	"sos/internal/store"
)

// contactWorkload is two complete nodes over loopback NetMedium sockets,
// sosd's in-vivo transport, whose stores hold the same preloaded history.
type contactWorkload struct {
	authors int
	// posts > 0 selects the closed loop: node 0 posts this many times per
	// episode, waiting for each delivery before the next post.
	posts int
	// rate > 0 selects the open loop: both nodes post rate posts/s each,
	// for a window of periods resync-heartbeat periods.
	rate    float64
	periods int
	// stagger starts node 1 this long after node 0, so the two nodes'
	// resync heartbeats tick out of phase, as two independent devices'
	// would, instead of contending for the CPU at the same instant.
	stagger time.Duration
}

// payloadSize is the size of every benchmark post.
const payloadSize = 200

// deliveryTimeout bounds the wait for one post (closed loop) or for the
// stragglers after the window (open loop); a post that misses it failed.
const deliveryTimeout = 10 * time.Second

// arrival is one OnReceive callback, stamped on arrival.
type arrival struct {
	ref     msg.Ref
	payload []byte
	at      time.Time
}

// sent is one post the benchmark made, with the time its latency counts from.
type sent struct {
	ref     msg.Ref
	payload []byte
	from    time.Time
}

// pairNode is one of the two middleware instances of an episode.
type pairNode struct {
	mw     *core.Middleware
	medium *netmedium.Medium
	// inbox receives every arrival. It is sized for every post of the
	// episode, so OnReceive never blocks the node; an arrival that finds
	// it full is counted in overflow and fails the run.
	inbox    chan arrival
	overflow int
	mu       sync.Mutex
}

func (n *pairNode) onReceive(m *msg.Message, _ id.UserID) {
	select {
	case n.inbox <- arrival{ref: m.Ref(), payload: m.Payload, at: time.Now()}:
	default:
		n.mu.Lock()
		n.overflow++
		n.mu.Unlock()
	}
}

// episode is one fresh node pair: set up, measured for one window, torn down.
type episode struct {
	setup     time.Duration
	window    time.Duration
	attempted int
	delivered int
	failures  []string
	latencies []float64 // ms, one per delivered post
	postUs    []float64 // µs per Middleware.Post call in the window
	lateMax   time.Duration

	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	wireBytes  uint64

	// Counter snapshots of both nodes at window start and end.
	coreBefore, coreAfter [2]core.Stats
	secBefore, secAfter   [2]secure.Stats
	netBefore, netAfter   [2]netmedium.Stats
}

func (e *episode) fail(format string, args ...any) {
	e.failures = append(e.failures, fmt.Sprintf(format, args...))
}

// historyAuthor names the i-th preloaded author of a seed's history.
func historyAuthor(seed int64, i int) id.UserID {
	return id.NewUserID(fmt.Sprintf("history-%d-%07d", seed, i))
}

// payloads returns n distinct seeded 200-byte post bodies per poster.
func payloads(seed int64, posters, n int) [][][]byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([][][]byte, posters)
	for p := range out {
		out[p] = make([][]byte, n)
		for i := range out[p] {
			b := make([]byte, payloadSize)
			rng.Read(b)
			out[p][i] = b
		}
	}
	return out
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMB returns the process's peak resident set size.
func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// newPair builds two nodes whose stores hold the same authors-author
// history, links them over loopback sockets, and primes the contact: a
// first post from each poster is delivered and both nodes' views of the
// peer's summary cover the whole history. It returns the time this took,
// less the stagger. With tr set, the stores and media are wrapped in the
// timing wrappers. On error the caller closes the nodes built so far.
func newPair(seed int64, w contactWorkload, posters, inboxCap int, tr *tracer) (nodes [2]*pairNode, setup time.Duration, err error) {
	start := time.Now()
	defer func() { setup = time.Since(start) - w.stagger }()
	ca, err := pki.NewCA("perfbench-root")
	if err != nil {
		return nodes, 0, err
	}
	svc := cloud.New(ca)
	created := time.Unix(1491472800, 0).UTC()
	history := make([]*msg.Message, w.authors)
	for i := range history {
		history[i] = &msg.Message{Author: historyAuthor(seed, i), Seq: 1, Kind: msg.KindPost, Created: created}
	}
	// Both stores are filled before either node starts, so the phase of
	// the two nodes' resync heartbeats, which start with them, is set by
	// w.stagger alone.
	var creds [2]*cloud.Credentials
	var stores [2]store.Engine
	for i, handle := range []string{"alice", "bob"} {
		if creds[i], err = cloud.Bootstrap(svc, handle, crand.Reader); err != nil {
			return nodes, 0, err
		}
		stores[i] = store.New(creds[i].Ident.User)
		for _, m := range history {
			if _, err := stores[i].Put(m); err != nil {
				return nodes, 0, err
			}
		}
	}
	for i := range nodes {
		if i == 1 && w.stagger > 0 {
			time.Sleep(w.stagger)
		}
		cfg := netmedium.Config{BeaconListen: "127.0.0.1:0", ListenIP: "127.0.0.1"}
		if i == 1 {
			cfg.BeaconTargets = nodes[0].medium.BeaconAddrs()
		}
		medium, err := netmedium.New(cfg)
		if err != nil {
			return nodes, 0, err
		}
		n := &pairNode{medium: medium, inbox: make(chan arrival, inboxCap)}
		ccfg := core.Config{Creds: creds[i], Medium: medium, Store: stores[i], OnReceive: n.onReceive}
		if tr != nil {
			ccfg.Store = &timedStore{Engine: stores[i], t: tr, node: i}
			ccfg.Medium = &timedMedium{Medium: medium, t: tr, node: i}
		}
		if n.mw, err = core.New(ccfg); err != nil {
			return nodes, 0, err
		}
		nodes[i] = n
	}
	for _, addr := range nodes[1].medium.BeaconAddrs() {
		if err := nodes[0].medium.AddBeaconTarget(addr); err != nil {
			return nodes, 0, err
		}
	}
	primer := []byte("perfbench primer")
	for p := 0; p < posters; p++ {
		m, err := nodes[p].mw.Post(primer)
		if err != nil {
			return nodes, 0, err
		}
		select {
		case a := <-nodes[1-p].inbox:
			if a.ref != m.Ref() || !bytes.Equal(a.payload, primer) {
				return nodes, 0, fmt.Errorf("primer from node %d arrived as %v", p, a.ref)
			}
		case <-time.After(60 * time.Second):
			return nodes, 0, fmt.Errorf("primer from node %d never delivered", p)
		}
	}
	settleBy := time.Now().Add(120 * time.Second)
	for {
		_, _, v0 := nodes[0].mw.SyncState()
		_, _, v1 := nodes[1].mw.SyncState()
		if v0 >= w.authors && v1 >= w.authors {
			return nodes, 0, nil
		}
		if time.Now().After(settleBy) {
			return nodes, 0, fmt.Errorf("summary exchange did not settle (views %d/%d of %d)", v0, v1, w.authors)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// awaitTick waits until the node's resync heartbeat has walked its view
// of the peer's authors-entry summary once, as seen from the node's own
// PlanEntriesScanned counter.
func awaitTick(n *pairNode, authors int) error {
	base := n.mw.Stats().Message.PlanEntriesScanned
	deadline := time.Now().Add(2 * message.DefaultResyncInterval)
	for n.mw.Stats().Message.PlanEntriesScanned-base < uint64(authors) {
		if time.Now().After(deadline) {
			return fmt.Errorf("no resync heartbeat within %s", 2*message.DefaultResyncInterval)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func closePair(nodes [2]*pairNode) {
	for _, n := range nodes {
		if n != nil && n.mw != nil {
			n.mw.Close()
		}
	}
}

// snapshot reads every counter the episode reports, for both nodes.
func snapshot(nodes [2]*pairNode, st *[2]core.Stats, sec *[2]secure.Stats, nm *[2]netmedium.Stats) {
	for i, n := range nodes {
		st[i] = n.mw.Stats()
		sec[i] = n.mw.SecureStats()
		nm[i] = n.medium.Stats()
	}
}

func wireBytes(st [2]core.Stats) uint64 {
	var b uint64
	for _, s := range st {
		b += s.Message.SummaryBytesSent + s.Message.PayloadBytesSent
	}
	return b
}

// runEpisode sets up a fresh pair, measures one window, checks that every
// post arrived exactly once with its payload, and tears the pair down.
// With tr set, the window's boundary calls are recorded as spans.
func runEpisode(seed int64, w contactWorkload, bodies [][][]byte, tr *tracer) (*episode, error) {
	ep := &episode{}
	posters, perPoster := 1, w.posts
	if w.rate > 0 {
		posters, perPoster = 2, len(bodies[0])
	}
	runtime.GC()
	nodes, setup, err := newPair(seed, w, posters, perPoster+16, tr)
	defer closePair(nodes)
	if err != nil {
		return nil, err
	}
	ep.setup = setup
	if w.rate > 0 {
		// The open-loop window starts right after node 0's heartbeat
		// ticked, so with the stagger it holds the same ticks of both
		// nodes in every episode.
		if err := awaitTick(nodes[0], w.authors); err != nil {
			return nil, err
		}
	}

	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	snapshot(nodes, &ep.coreBefore, &ep.secBefore, &ep.netBefore)
	cpuBefore := cpuTime()
	if tr != nil {
		tr.enabled.Store(true)
	}
	windowStart := time.Now()

	var posted [][]sent
	var burstArrivals []arrival
	if w.rate > 0 {
		posted = ep.openLoop(nodes, w, bodies, tr)
	} else {
		var list []sent
		list, burstArrivals = ep.closedLoop(nodes, bodies[0], tr)
		posted = [][]sent{list}
	}
	ep.window = time.Since(windowStart)
	if tr != nil {
		tr.enabled.Store(false)
	}
	ep.cpu = cpuTime() - cpuBefore
	snapshot(nodes, &ep.coreAfter, &ep.secAfter, &ep.netAfter)
	runtime.ReadMemStats(&msAfter)
	ep.mallocs = msAfter.Mallocs - msBefore.Mallocs
	ep.allocBytes = msAfter.TotalAlloc - msBefore.TotalAlloc
	ep.wireBytes = wireBytes(ep.coreAfter) - wireBytes(ep.coreBefore)

	for p, list := range posted {
		ep.attempted += len(list)
		ep.check(list, append(burstArrivals, drain(nodes[1-p])...))
	}
	for i, n := range nodes {
		if n.overflow > 0 {
			ep.fail("node %d: %d arrivals overflowed the inbox", i, n.overflow)
		}
	}
	return ep, nil
}

// closedLoop posts each body from node 0 and waits for its delivery to
// node 1 before the next.
func (ep *episode) closedLoop(nodes [2]*pairNode, bodies [][]byte, tr *tracer) ([]sent, []arrival) {
	out := make([]sent, 0, len(bodies))
	got := make([]arrival, 0, len(bodies))
	for _, body := range bodies {
		t0 := time.Now()
		var m *msg.Message
		var err error
		tr.bench(0, "core.post", len(body), func() { m, err = nodes[0].mw.Post(body) })
		ep.postUs = append(ep.postUs, float64(time.Since(t0))/1e3)
		if err != nil {
			ep.fail("post: %v", err)
			break
		}
		out = append(out, sent{ref: m.Ref(), payload: body, from: t0})
		select {
		case a := <-nodes[1].inbox:
			got = append(got, a)
		case <-time.After(deliveryTimeout):
			return out, got // check reports the missing post
		}
	}
	return out, got
}

// openLoop runs one generator per node at w.rate posts/s, node 1 offset
// by half an interval, for the whole window; latency counts from each
// post's due time. It then waits for the stragglers.
func (ep *episode) openLoop(nodes [2]*pairNode, w contactWorkload, bodies [][][]byte, tr *tracer) [][]sent {
	interval := time.Duration(float64(time.Second) / w.rate)
	begin := time.Now()
	out := make([][]sent, 2)
	late := make([]time.Duration, 2)
	postUs := make([][]float64, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i, body := range bodies[p] {
				due := begin.Add(time.Duration(p)*interval/2 + time.Duration(i)*interval)
				time.Sleep(time.Until(due))
				t0 := time.Now()
				late[p] = max(late[p], t0.Sub(due))
				var m *msg.Message
				var err error
				tr.bench(p, "core.post", len(body), func() { m, err = nodes[p].mw.Post(body) })
				postUs[p] = append(postUs[p], float64(time.Since(t0))/1e3)
				if err != nil {
					errs[p] = err
					return
				}
				out[p] = append(out[p], sent{ref: m.Ref(), payload: body, from: due})
			}
		}(p)
	}
	wg.Wait()
	for p := range errs {
		if errs[p] != nil {
			ep.fail("node %d post: %v", p, errs[p])
		}
		ep.lateMax = max(ep.lateMax, late[p])
		ep.postUs = append(ep.postUs, postUs[p]...)
	}
	// Stragglers: wait until each receiver's inbox holds every post sent
	// to it, or the timeout passes.
	deadline := time.Now().Add(deliveryTimeout)
	for p := 0; p < 2; p++ {
		for len(nodes[1-p].inbox) < len(out[p]) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
	}
	return out
}

// drain empties a node's inbox.
func drain(n *pairNode) []arrival {
	var out []arrival
	for {
		select {
		case a := <-n.inbox:
			out = append(out, a)
		default:
			return out
		}
	}
}

// check matches one receiver's arrivals against the posts sent to it:
// each must arrive exactly once, under its Ref, with a byte-identical
// payload. Latencies of delivered posts are recorded.
func (ep *episode) check(posts []sent, arrivals []arrival) {
	want := make(map[msg.Ref]sent, len(posts))
	for _, s := range posts {
		want[s.ref] = s
	}
	seen := make(map[msg.Ref]bool, len(posts))
	for _, a := range arrivals {
		s, ok := want[a.ref]
		switch {
		case !ok:
			ep.fail("unexpected arrival %v", a.ref)
		case seen[a.ref]:
			ep.fail("post %v arrived twice", a.ref)
		default:
			seen[a.ref] = true
			if !bytes.Equal(a.payload, s.payload) {
				ep.fail("post %v arrived with a different payload", a.ref)
				continue
			}
			ep.delivered++
			ep.latencies = append(ep.latencies, float64(a.at.Sub(s.from))/1e6)
		}
	}
	for _, s := range posts {
		if !seen[s.ref] {
			ep.fail("post %v never arrived", s.ref)
		}
	}
}

// minSetups is the fewest set-ups a contact run times; runs with fewer
// episodes add set-ups without a window, so setup_s is always a median of
// several.
const minSetups = 3

// contactRun is one run of a contact workload.
type contactRun struct {
	untraced, traced []*episode
	setups           []float64 // seconds, of every episode and extra set-up
}

// runContact runs episodes of w for the given measured seconds. In a
// traced run the first half of the time runs untraced episodes and the
// second half traced ones, so the run can print the tracing overhead next
// to the per-layer numbers.
func runContact(seed int64, w contactWorkload, seconds float64, tr *tracer) (*contactRun, error) {
	n := w.posts
	if w.rate > 0 {
		n = int(w.rate * float64(w.periods) * message.DefaultResyncInterval.Seconds())
	}
	bodies := payloads(seed, 2, n)
	run := &contactRun{}
	budget := seconds
	if tr != nil {
		budget = seconds / 2
	}
	// Another episode starts only if at least half of it fits the budget,
	// so a paced window that ends a few milliseconds short of the budget
	// does not add a whole extra episode.
	var spent, last float64
	for len(run.untraced) == 0 || spent+last/2 < budget {
		ep, err := runEpisode(seed, w, bodies, nil)
		if err != nil {
			return nil, err
		}
		run.untraced = append(run.untraced, ep)
		run.setups = append(run.setups, ep.setup.Seconds())
		last = ep.window.Seconds()
		spent += last
	}
	for tr != nil && (len(run.traced) == 0 || spent+last/2 < seconds) {
		ep, err := runEpisode(seed, w, bodies, tr)
		if err != nil {
			return nil, err
		}
		run.traced = append(run.traced, ep)
		last = ep.window.Seconds()
		spent += last
	}
	for len(run.setups) < minSetups {
		runtime.GC()
		nodes, setup, err := newPair(seed, w, 1, 16, nil)
		closePair(nodes)
		if err != nil {
			return nil, err
		}
		run.setups = append(run.setups, setup.Seconds())
	}
	return run, nil
}

// minQuantileSamples is the fewest deliveries a p99 is taken over, so at
// least ten lie beyond it.
const minQuantileSamples = 1000

// latencyQuantile returns the q-quantile of delivery latency. When every
// episode holds at least minQuantileSamples deliveries it is the median of
// the episodes' quantiles, which a short stall of the host moves less;
// otherwise it is the quantile of all deliveries pooled.
func latencyQuantile(eps []*episode, q float64) float64 {
	var per, pooled []float64
	perEpisode := true
	for _, e := range eps {
		l := append([]float64(nil), e.latencies...)
		sort.Float64s(l)
		per = append(per, quantile(l, q))
		pooled = append(pooled, l...)
		perEpisode = perEpisode && len(l) >= minQuantileSamples
	}
	if perEpisode {
		return median(per)
	}
	sort.Float64s(pooled)
	return quantile(pooled, q)
}

// contactMetrics computes the end-to-end metrics of a set of episodes and
// set-up times. Per-message figures are medians over episodes; latency
// percentiles are taken as latencyQuantile says.
func contactMetrics(eps []*episode, setups []float64) metricSet {
	var rate, cpuMsg, busy, allocs, allocB, wire []float64
	attempted, delivered, failed := 0, 0, 0
	for _, e := range eps {
		d := float64(max(e.delivered, 1))
		rate = append(rate, float64(e.delivered)/e.window.Seconds())
		cpuMsg = append(cpuMsg, float64(e.cpu)/1e6/d)
		busy = append(busy, e.cpu.Seconds()/e.window.Seconds())
		allocs = append(allocs, float64(e.mallocs)/d)
		allocB = append(allocB, float64(e.allocBytes)/d)
		wire = append(wire, float64(e.wireBytes)/d)
		attempted += e.attempted
		delivered += e.delivered
		failed += len(e.failures)
	}
	return metricSet{
		"setup_s":             median(setups),
		"msgs_per_s":          median(rate),
		"delivery_p50_ms":     latencyQuantile(eps, 0.50),
		"delivery_p99_ms":     latencyQuantile(eps, 0.99),
		"delivery_ratio":      float64(delivered) / float64(max(attempted, 1)),
		"cpu_ms_per_msg":      median(cpuMsg),
		"cpu_cores_busy":      median(busy),
		"allocs_per_msg":      median(allocs),
		"alloc_bytes_per_msg": median(allocB),
		"wire_bytes_per_msg":  median(wire),
		"rss_peak_mb":         rssPeakMB(),
		"ok_ratio":            max(0, 1-float64(failed)/float64(max(attempted, 1))),
	}
}
