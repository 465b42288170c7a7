package sos_test

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"sos"
	"sos/internal/chaos"
)

// rejoinFleet is a fleet whose nodes can be killed and restarted with
// the same credentials and security directory — the harness for the
// offline-rotation scenario. Delivery books survive a restart so the
// test can wait on refs across a node's death. The whole fleet runs on
// one timeline: the simulated radio, the chaos wrapper and every
// protocol timer schedule on the virtual clock, and only the test
// goroutine advances it.
type rejoinFleet struct {
	t      *testing.T
	cld    *sos.Cloud
	radio  *sos.SimMedium
	medium sos.Medium // the chaos wrapper over radio
	clk    *sos.VirtualClock

	nodes map[string]*sos.Node
	creds map[string]*sos.Credentials
	dirs  map[string]string
	seen  map[string]map[sos.Ref]int
}

// device names a handle's radio.
func device(handle string) sos.PeerID { return sos.PeerID(handle + "-device") }

func (f *rejoinFleet) security(handle string) sos.SecurityConfig {
	return sos.SecurityConfig{
		Dir:    f.dirs[handle],
		NoSync: true,
		// Lab timescale: epochs measured in virtual minutes so an offline
		// window spans several rotations.
		RotationPeriod: time.Minute,
		OverlapWindow:  10 * time.Second,
	}
}

// start boots (or reboots) handle's node from its persistent identity
// and replay directory, in radio range of every live node.
func (f *rejoinFleet) start(handle string) *sos.Node {
	f.t.Helper()
	if f.creds[handle] == nil {
		creds, err := sos.Bootstrap(f.cld, handle)
		if err != nil {
			f.t.Fatalf("Bootstrap(%s): %v", handle, err)
		}
		f.creds[handle] = creds
		f.dirs[handle] = filepath.Join(f.t.TempDir(), handle)
		f.seen[handle] = make(map[sos.Ref]int)
	}
	book := f.seen[handle]

	n, err := sos.NewNode(sos.NodeConfig{
		Creds:            f.creds[handle],
		Medium:           f.medium,
		PeerName:         device(handle),
		Clock:            f.clk,
		Security:         f.security(handle),
		HandshakeTimeout: 250 * time.Millisecond,
		ResyncInterval:   250 * time.Millisecond,
		OnReceive: func(m *sos.Message, _ sos.UserID) {
			book[m.Ref()]++
		},
	})
	if err != nil {
		f.t.Fatalf("NewNode(%s): %v", handle, err)
	}
	for other := range f.nodes {
		f.radio.SetLink(device(handle), device(other), sos.Bluetooth)
	}
	f.nodes[handle] = n
	return n
}

// kill powers handle's device off: the node closes and its radio
// contacts end.
func (f *rejoinFleet) kill(handle string) {
	f.t.Helper()
	n := f.nodes[handle]
	delete(f.nodes, handle)
	if err := n.Close(); err != nil {
		f.t.Fatalf("Close(%s): %v", handle, err)
	}
	for other := range f.nodes {
		f.radio.CutLink(device(handle), device(other))
	}
}

// waitFor advances virtual time until every named node's book holds
// every ref, failing once deadline of virtual time has passed.
// Misbehavior decay, quarantine terms, rotation periods, the heartbeat
// and the handshake guard are all measured on the virtual clock, and a
// frozen clock would make a single honest-accident score permanent.
func (f *rejoinFleet) waitFor(refs []sos.Ref, handles []string, deadline time.Duration) {
	f.t.Helper()
	until := f.clk.Now().Add(deadline)
	for {
		missing := 0
		for _, h := range handles {
			self := sos.NewUserID(h)
			for _, r := range refs {
				if r.Author != self && f.seen[h][r] == 0 {
					missing++
				}
			}
		}
		if missing == 0 {
			return
		}
		if f.clk.Now().After(until) {
			for _, h := range handles {
				f.t.Logf("node %s holds %d refs", h, len(f.seen[h]))
			}
			for h, n := range f.nodes {
				ms := n.Stats().Message
				f.t.Logf("node %s msg: recv=%d served=%d misbehave=%d quar=%d inflightExp=%d pullsSent=%d reconnects=%d prekeySent=%d prekeyRecv=%d prekeyRej=%d",
					h, ms.MessagesReceived, ms.MessagesServed, ms.MisbehaviorEvents, ms.Quarantines,
					ms.InflightExpired, ms.SummaryPullsSent, ms.Reconnects, ms.PrekeyBundlesSent, ms.PrekeyBundlesReceived, ms.PrekeyRejects)
				f.t.Logf("node %s secure: %+v adhoc: %+v", h, n.SecureStats(), n.Stats().Adhoc)
			}
			f.t.Fatalf("deliveries stalled: %d (node, ref) pairs missing", missing)
		}
		f.clk.Advance(50 * time.Millisecond)
	}
}

// TestSecureKillRejoinAfterRotation is the tentpole's acceptance
// scenario: a node goes dark, the surviving fleet rotates session keys
// several epochs ahead on the virtual clock, and on rejoin the node must
// re-handshake, re-sync everything it missed, and deliver new traffic —
// under a duplicating, reordering radio. It runs on one virtual
// timeline, so every run replays the same schedule.
func TestSecureKillRejoinAfterRotation(t *testing.T) {
	clk := sos.NewVirtualClock(time.Unix(1700000000, 0))
	ca, err := sos.NewCA("Rotation Root CA", clk)
	if err != nil {
		t.Fatal(err)
	}
	cld := sos.NewCloud(ca, clk)
	prof, err := chaos.Preset(chaos.PresetDupReorder, 60*time.Second, 17)
	if err != nil {
		t.Fatal(err)
	}
	radio := sos.NewSimMedium(clk)
	chz, err := chaos.Wrap(radio, prof, clk)
	if err != nil {
		t.Fatal(err)
	}
	defer chz.Close()

	f := &rejoinFleet{
		t:      t,
		cld:    cld,
		radio:  radio,
		medium: chz,
		clk:    clk,
		nodes:  make(map[string]*sos.Node),
		creds:  make(map[string]*sos.Credentials),
		dirs:   make(map[string]string),
		seen:   make(map[string]map[sos.Ref]int),
	}
	handles := []string{"ana", "bo", "cyd"}
	for _, h := range handles {
		f.start(h)
	}
	defer func() {
		for _, n := range f.nodes {
			n.Close()
		}
	}()

	// Round 1: everyone online, everyone hears everyone.
	var round1 []sos.Ref
	for _, h := range handles {
		m, err := f.nodes[h].Post([]byte("round 1 from " + h))
		if err != nil {
			t.Fatalf("Post(%s): %v", h, err)
		}
		round1 = append(round1, m.Ref())
	}
	f.waitFor(round1, handles, 150*time.Second)

	// cyd goes dark; the virtual clock runs several rotation periods
	// while the survivors keep talking, so their established sessions
	// ratchet multiple epochs past anything cyd ever held.
	f.kill("cyd")
	f.clk.Advance(5 * time.Minute)

	var round2 []sos.Ref
	for i := 0; i < 20; i++ {
		h := handles[i%2] // ana and bo only
		m, err := f.nodes[h].Post([]byte(fmt.Sprintf("round 2 #%d from %s", i, h)))
		if err != nil {
			t.Fatalf("Post(%s): %v", h, err)
		}
		round2 = append(round2, m.Ref())
	}
	f.waitFor(round2, []string{"ana", "bo"}, 150*time.Second)

	rotations := f.nodes["ana"].SecureStats().Rotations + f.nodes["bo"].SecureStats().Rotations
	if rotations < 1 {
		t.Fatalf("no session rotated across a 5-epoch offline window (rotations = %d)", rotations)
	}

	// cyd rejoins from its persisted identity and replay directory: it
	// must re-handshake fresh sessions and pull the full round-2 backlog.
	f.start("cyd")
	f.waitFor(round2, []string{"cyd"}, 150*time.Second)

	// The channel works both ways after the rejoin.
	m, err := f.nodes["cyd"].Post([]byte("back from the dead"))
	if err != nil {
		t.Fatalf("Post(cyd): %v", err)
	}
	f.waitFor([]sos.Ref{m.Ref()}, []string{"ana", "bo"}, 150*time.Second)

	// The prekey plane survived the restart too: pools replenished, and
	// the secure counters are visible on the metrics surface.
	for _, h := range handles {
		if got := f.nodes[h].PrekeysRemaining(); got <= 0 {
			t.Errorf("node %s prekey pool = %d, want > 0", h, got)
		}
		reg := sos.NewMetricsRegistry()
		sos.RegisterNodeMetrics(reg, sos.NodeMetrics{Middleware: f.nodes[h]})
		snap := reg.Snapshot()
		if snap["sos_secure_seals_total"] <= 0 {
			t.Errorf("node %s bridged no seals", h)
		}
		if _, ok := snap["sos_secure_rotations_total"]; !ok {
			t.Errorf("node %s missing rotations series", h)
		}
	}
}
