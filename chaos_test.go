package sos_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sos"
	"sos/internal/chaos"
	"sos/internal/clock"
)

// chaosFleet is a small fleet of public-API nodes over one (possibly
// chaos-wrapped) medium, with per-node delivery books that record how
// many times each message ref was handed to OnReceive.
type chaosFleet struct {
	nodes []*sos.Node

	mu    sync.Mutex
	seen  []map[sos.Ref]int
	wake  chan struct{}
	total int
}

func newChaosFleet(t *testing.T, cld *sos.Cloud, medium sos.Medium, handles []string, tracer *sos.Tracer) *chaosFleet {
	t.Helper()
	f := &chaosFleet{wake: make(chan struct{}, 1)}
	for i, h := range handles {
		creds, err := sos.Bootstrap(cld, h)
		if err != nil {
			t.Fatalf("Bootstrap(%s): %v", h, err)
		}
		book := make(map[sos.Ref]int)
		f.seen = append(f.seen, book)
		cfg := sos.NodeConfig{
			Creds:    creds,
			Medium:   medium,
			PeerName: sos.PeerID(h + "-device"),
			// The chaos tests run at lab timescale: a wedged handshake
			// or a swallowed frame must heal in hundreds of
			// milliseconds, not field-default seconds.
			HandshakeTimeout: 250 * time.Millisecond,
			ResyncInterval:   250 * time.Millisecond,
			OnReceive: func(m *sos.Message, _ sos.UserID) {
				f.mu.Lock()
				book[m.Ref()]++
				f.total++
				f.mu.Unlock()
				select {
				case f.wake <- struct{}{}:
				default:
				}
			},
		}
		if i == 0 {
			cfg.Tracer = tracer
		}
		n, err := sos.NewNode(cfg)
		if err != nil {
			t.Fatalf("NewNode(%s): %v", h, err)
		}
		t.Cleanup(func() { n.Close() })
		f.nodes = append(f.nodes, n)
	}
	return f
}

// waitDeliveries blocks until every node has received every one of the
// given refs (posts reach each node except their author).
func (f *chaosFleet) waitDeliveries(t *testing.T, refs []sos.Ref, deadline time.Duration) {
	t.Helper()
	want := len(refs) * (len(f.nodes) - 1)
	timeout := time.After(deadline)
	for {
		f.mu.Lock()
		got := f.total
		f.mu.Unlock()
		if got >= want {
			return
		}
		select {
		case <-f.wake:
		case <-timeout:
			f.mu.Lock()
			defer f.mu.Unlock()
			for i, book := range f.seen {
				t.Logf("node %d received %d refs", i, len(book))
			}
			t.Fatalf("deliveries stalled: %d of %d", got, want)
		}
	}
}

// assertNoDuplicateDeliveries fails if any OnReceive fired twice for the
// same ref on the same node — the idempotent-receive guarantee the
// duplication and reorder dice exist to attack.
func (f *chaosFleet) assertNoDuplicateDeliveries(t *testing.T) {
	t.Helper()
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, book := range f.seen {
		for ref, n := range book {
			if n != 1 {
				t.Errorf("node %d delivered %v %d times, want exactly once", i, ref, n)
			}
		}
	}
}

// TestChaosPartitionHealFullDelivery posts while a scheduled partition
// splits the fleet and asserts every message still reaches every node
// after the split heals.
func TestChaosPartitionHealFullDelivery(t *testing.T) {
	ca, err := sos.NewCA("Chaos Root CA", nil)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	medium := sos.NewMemMedium()
	chz, err := chaos.Wrap(medium, chaos.Profile{
		Seed:       11,
		Partitions: []chaos.Partition{{At: 300 * time.Millisecond, Heal: 1200 * time.Millisecond}},
	}, clock.System())
	if err != nil {
		t.Fatal(err)
	}
	defer chz.Close()

	fleet := newChaosFleet(t, cld, chz, []string{"pat", "quinn", "rory"}, sos.NewTracer(0))

	// Post from inside the partition window: whichever half a node
	// landed in, its message cannot cross until the heal.
	time.Sleep(450 * time.Millisecond)
	var refs []sos.Ref
	for i, n := range fleet.nodes {
		m, err := n.Post([]byte(fmt.Sprintf("from node %d mid-split", i)))
		if err != nil {
			t.Fatalf("Post(node %d): %v", i, err)
		}
		refs = append(refs, m.Ref())
	}

	fleet.waitDeliveries(t, refs, 30*time.Second)
	fleet.assertNoDuplicateDeliveries(t)

	cs := chz.Stats()
	if cs.PartitionsStarted < 1 || cs.PartitionsHealed < 1 {
		t.Errorf("partition window never ran: started %d healed %d", cs.PartitionsStarted, cs.PartitionsHealed)
	}
}

// TestChaosDupReorderExactlyOnce runs the idempotency wringer: every
// frame has a 25% chance of being sent twice and a 25% chance of being
// overtaken, yet every message must be delivered to every node exactly
// once.
func TestChaosDupReorderExactlyOnce(t *testing.T) {
	ca, err := sos.NewCA("Chaos Root CA", nil)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	medium := sos.NewMemMedium()
	prof, err := chaos.Preset(chaos.PresetDupReorder, 10*time.Second, 23)
	if err != nil {
		t.Fatal(err)
	}
	chz, err := chaos.Wrap(medium, prof, clock.System())
	if err != nil {
		t.Fatal(err)
	}
	defer chz.Close()

	fleet := newChaosFleet(t, cld, chz, []string{"uma", "vic", "wyn"}, sos.NewTracer(0))

	var refs []sos.Ref
	for round := 0; round < 3; round++ {
		for i, n := range fleet.nodes {
			m, err := n.Post([]byte(fmt.Sprintf("round %d from node %d", round, i)))
			if err != nil {
				t.Fatalf("Post(node %d): %v", i, err)
			}
			refs = append(refs, m.Ref())
		}
	}

	fleet.waitDeliveries(t, refs, 30*time.Second)
	fleet.assertNoDuplicateDeliveries(t)

	if cs := chz.Stats(); cs.FramesDuplicated == 0 && cs.FramesReordered == 0 {
		t.Errorf("dice never fired (duplicated %d, reordered %d) — the profile tested nothing", cs.FramesDuplicated, cs.FramesReordered)
	}
}

// TestByzantineQuarantine boots two honest nodes and one byzantine
// insider with real CA-issued credentials. The honest nodes must score
// the abuse, quarantine the attacker — visible in the bridged
// sos_sync_quarantine_total series — and keep syncing with each other.
func TestByzantineQuarantine(t *testing.T) {
	ca, err := sos.NewCA("Chaos Root CA", nil)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, nil)
	medium := sos.NewMemMedium()

	fleet := newChaosFleet(t, cld, medium, []string{"ada", "ben"}, sos.NewTracer(0))

	malCreds, err := sos.Bootstrap(cld, "mallory")
	if err != nil {
		t.Fatal(err)
	}
	byz, err := chaos.NewByzantine(chaos.ByzantineConfig{
		Medium:   medium,
		PeerName: "mallory-device",
		Creds:    malCreds,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer byz.Close()

	// The attacker speaks real handshakes and then misbehaves; wait for
	// an honest node to put it in quarantine.
	deadline := time.Now().Add(30 * time.Second)
	quarantined := func() bool {
		for _, n := range fleet.nodes {
			if n.Stats().Message.Quarantines >= 1 {
				return true
			}
		}
		return false
	}
	for !quarantined() {
		if time.Now().After(deadline) {
			for i, n := range fleet.nodes {
				ms := n.Stats().Message
				t.Logf("node %d: misbehavior %d quarantines %d", i, ms.MisbehaviorEvents, ms.Quarantines)
			}
			t.Fatal("no honest node quarantined the byzantine peer")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The quarantine must be visible on the metrics surface the fleet
	// dashboards scrape.
	var quarantineTotal float64
	for _, n := range fleet.nodes {
		reg := sos.NewMetricsRegistry()
		sos.RegisterNodeMetrics(reg, sos.NodeMetrics{Middleware: n})
		quarantineTotal += reg.Snapshot()["sos_sync_quarantine_total"]
	}
	if quarantineTotal < 1 {
		t.Errorf("sos_sync_quarantine_total = %v across honest nodes, want >= 1", quarantineTotal)
	}

	// Honest nodes keep syncing with each other while the attacker is
	// locked out.
	m, err := fleet.nodes[0].Post([]byte("honest traffic keeps flowing"))
	if err != nil {
		t.Fatal(err)
	}
	fleet.waitDeliveries(t, []sos.Ref{m.Ref()}, 30*time.Second)
	fleet.assertNoDuplicateDeliveries(t)

	if bs := byz.Stats(); bs.Links == 0 {
		t.Errorf("byzantine peer never completed a handshake: %+v", bs)
	}
}
