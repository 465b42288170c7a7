package main

import (
	"sync"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/mpc/mediumtest"
	"sos/internal/netmedium"
	"sos/internal/store"
	"sos/internal/store/storetest"
)

// The wrappers must not change what they wrap: the traced run has to
// measure the same program as the untraced one. Each wrapper therefore
// passes the conformance suite of the interface it implements, with its
// tracer recording.

func enabledTracer() *tracer {
	t := newTracer("node")
	t.enabled.Store(true)
	return t
}

var confOwner = id.NewUserID("conformance-owner")

type timedMemWorld struct{}

func (timedMemWorld) Open(t *testing.T, opts store.Options) store.Engine {
	return &timedStore{Engine: store.NewMemory(confOwner, opts), t: enabledTracer()}
}
func (timedMemWorld) Persistent() bool { return false }

type timedDiskWorld struct{ dir string }

func (w timedDiskWorld) Open(t *testing.T, opts store.Options) store.Engine {
	e, err := store.OpenDisk(w.dir, confOwner, opts)
	if err != nil {
		t.Fatalf("OpenDisk(%s): %v", w.dir, err)
	}
	return &timedStore{Engine: e, t: enabledTracer()}
}
func (timedDiskWorld) Persistent() bool { return true }

func TestTimedStoreConformance(t *testing.T) {
	t.Run("memory", func(t *testing.T) {
		storetest.Run(t, func(t *testing.T) storetest.World { return timedMemWorld{} })
	})
	t.Run("disk", func(t *testing.T) {
		storetest.Run(t, func(t *testing.T) storetest.World { return timedDiskWorld{dir: t.TempDir()} })
	})
}

// reachability is the part of MemMedium and netmedium.Medium the worlds
// below stage radio range with.
type reachability interface {
	SetReachable(a, b mpc.PeerID, up bool)
}

// timedWorld joins every device through a timedMedium over an inner
// medium, starting each joiner out of range of the others.
type timedWorld struct {
	inner  mpc.Medium
	reach  reachability
	step   time.Duration
	tr     *tracer
	mu     sync.Mutex
	joined []mpc.PeerID
	eps    []mpc.Endpoint
}

func (w *timedWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, other := range w.joined {
		w.reach.SetReachable(peer, other, false)
	}
	ep, err := (&timedMedium{Medium: w.inner, t: w.tr}).Join(peer, ev)
	if err != nil {
		return nil, err
	}
	w.joined = append(w.joined, peer)
	w.eps = append(w.eps, ep)
	return ep, nil
}

func (w *timedWorld) Link(a, b mpc.PeerID)   { w.reach.SetReachable(a, b, true) }
func (w *timedWorld) Unlink(a, b mpc.PeerID) { w.reach.SetReachable(a, b, false) }
func (w *timedWorld) Step()                  { time.Sleep(w.step) }

func (w *timedWorld) Close() {
	w.mu.Lock()
	eps := w.eps
	w.mu.Unlock()
	for _, ep := range eps {
		ep.Close()
	}
}

func TestTimedMediumConformance(t *testing.T) {
	t.Run("mem", func(t *testing.T) {
		mediumtest.Run(t, func(t *testing.T) mediumtest.World {
			m := mpc.NewMemMedium()
			return &timedWorld{inner: m, reach: m, step: 2 * time.Millisecond, tr: enabledTracer()}
		})
	})
	t.Run("net", func(t *testing.T) {
		mediumtest.Run(t, func(t *testing.T) mediumtest.World {
			m, err := netmedium.New(netmedium.Config{
				BeaconListen:   "127.0.0.1:0",
				ListenIP:       "127.0.0.1",
				BeaconInterval: 25 * time.Millisecond,
				LossTimeout:    150 * time.Millisecond,
				DialTimeout:    2 * time.Second,
			})
			if err != nil {
				t.Fatalf("netmedium.New: %v", err)
			}
			return &timedWorld{inner: m, reach: m, step: 10 * time.Millisecond, tr: enabledTracer()}
		})
	})
}

// TestSpanParents checks the span tree: a leaf called inside a root on the
// same node is its child and its time is taken out of the root's self
// time; a leaf from another goroutine, outside any root, has no parent.
func TestSpanParents(t *testing.T) {
	tr := newTracer("a", "b")
	tr.enabled.Store(true)
	leaf := func(node int) {
		start := tr.now()
		time.Sleep(2 * time.Millisecond)
		tr.leaf(node, "store.put", start, tr.now(), 0, false)
	}
	tr.bench(0, "core.post", 0, func() {
		leaf(0)
		done := make(chan struct{})
		go func() { leaf(0); close(done) }()
		<-done
	})
	ev := &timedEvents{t: tr, node: 1}
	ev.event("mpc.received", 0, func() { leaf(1) })

	var post, received spanRec
	var puts []spanRec
	for _, s := range tr.dump {
		switch s.name {
		case "core.post":
			post = s
		case "mpc.received":
			received = s
		case "store.put":
			puts = append(puts, s)
		}
	}
	if len(puts) != 3 {
		t.Fatalf("recorded %d store.put spans, want 3", len(puts))
	}
	if puts[0].parent != post.id || puts[0].lane != laneBench {
		t.Errorf("leaf inside core.post: parent %d lane %d, want %d lane %d", puts[0].parent, puts[0].lane, post.id, laneBench)
	}
	if puts[1].parent != 0 {
		t.Errorf("leaf on another goroutine got parent %d, want none", puts[1].parent)
	}
	if puts[2].parent != received.id || puts[2].lane != laneEvents {
		t.Errorf("leaf inside mpc.received: parent %d lane %d, want %d lane %d", puts[2].parent, puts[2].lane, received.id, laneEvents)
	}
	agg := tr.agg[aggKey{0, "core.post"}]
	if self, child := agg.selfNs, puts[0].end-puts[0].start; self != (post.end-post.start)-child {
		t.Errorf("core.post self %d ns, want duration %d less child %d", self, post.end-post.start, child)
	}
	if tr.violations != 0 {
		t.Errorf("%d child-overlap violations", tr.violations)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.99, 3.97}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// TestEpisodes runs one small traced episode of each contact loop end to
// end: every post must arrive once with its payload, and store spans must
// be recorded under their roots.
func TestEpisodes(t *testing.T) {
	for name, w := range map[string]contactWorkload{
		"closed": {authors: 100, posts: 20},
		"open":   {authors: 100, rate: 20, periods: 1, stagger: 100 * time.Millisecond},
	} {
		t.Run(name, func(t *testing.T) {
			n := w.posts
			if w.rate > 0 {
				n = 60
			}
			tr := newTracer("alice", "bob")
			ep, err := runEpisode(1, w, payloads(1, 2, n), tr)
			if err != nil {
				t.Fatal(err)
			}
			if len(ep.failures) > 0 || ep.delivered != ep.attempted || ep.attempted == 0 {
				t.Fatalf("delivered %d of %d, failures %v", ep.delivered, ep.attempted, ep.failures)
			}
			if put := tr.sum("store.put"); put.count == 0 {
				t.Error("no store.put spans recorded")
			}
			var parented int
			for _, s := range tr.dump {
				if s.name == "store.put" && s.parent != 0 {
					parented++
				}
			}
			if parented == 0 {
				t.Error("no store.put span has a parent")
			}
			if tr.violations != 0 {
				t.Errorf("%d child-overlap violations", tr.violations)
			}
		})
	}
}

// TestCompareRuns checks the sim repeat check: microsecond delay jitter
// and a changed hop count pass (the latter counted), a delay off by more
// than the tolerance or a different recipient fails.
func TestCompareRuns(t *testing.T) {
	base := simRun{disseminations: 2, deliveries: []delivery{
		{key: "m1>u1", hops: 1, delay: time.Hour},
		{key: "m2>u2", hops: 2, delay: 2 * time.Hour},
	}}
	same := func(f func(ds []delivery)) *simRun {
		r := base
		r.deliveries = append([]delivery(nil), base.deliveries...)
		f(r.deliveries)
		return &r
	}
	d, err := compareRuns(&base, same(func(ds []delivery) { ds[0].delay += 2 * time.Microsecond; ds[1].hops = 1 }))
	if err != nil || d.hopFlips != 1 || d.worst != 2*time.Microsecond {
		t.Errorf("jitter and hop change: diff %+v, err %v; want 1 flip, 2µs, no error", d, err)
	}
	if _, err := compareRuns(&base, same(func(ds []delivery) { ds[1].delay += 2 * time.Millisecond })); err == nil {
		t.Error("2 ms delay difference passed")
	}
	if _, err := compareRuns(&base, same(func(ds []delivery) { ds[1].key = "m2>u3" })); err == nil {
		t.Error("different recipient passed")
	}
}
