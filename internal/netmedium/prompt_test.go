package netmedium

import (
	"bytes"
	"testing"
	"time"
)

// TestChangedAdWaitsForTickWhenAllPeersLinked checks when a changed
// advertisement leaves the endpoint. The beacon interval is an hour, so
// no periodic beacon fires during the test and the test itself plays
// the next tick. With every known peer in session the change waits for
// that tick; once a peer without a session is around, it goes out at
// once.
func TestChangedAdWaitsForTickWhenAllPeersLinked(t *testing.T) {
	cfg := testConfig()
	cfg.BeaconInterval = time.Hour
	cfg.LossTimeout = 2 * time.Hour
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	recA, recB := newCollector(), newCollector()
	epA, err := m.Join("alice", recA)
	if err != nil {
		t.Fatal(err)
	}
	defer epA.Close()
	epB, err := m.Join("bob", recB)
	if err != nil {
		t.Fatal(err)
	}
	defer epB.Close()
	a := epA.(*Endpoint)

	// Unlinked peers learn of every change at once.
	epB.SetAdvertisement([]byte("b-1"))
	epA.SetAdvertisement([]byte("a-1"))
	waitCond(t, "bob to find alice", func() bool { return bytes.Equal(recB.adOf("alice"), []byte("a-1")) })
	waitCond(t, "alice to know bob", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.peers["bob"] != nil
	})
	if _, err := epA.Connect("bob"); err != nil {
		t.Fatal(err)
	}

	// Every known peer is in session: nothing goes out until the tick.
	sent := m.Stats().BeaconsSent
	epA.SetAdvertisement([]byte("a-2"))
	time.Sleep(50 * time.Millisecond)
	if got := m.Stats().BeaconsSent; got != sent {
		t.Fatalf("changed ad with every peer in session sent %d beacons before the tick", got-sent)
	}
	if !bytes.Equal(recB.adOf("alice"), []byte("a-1")) {
		t.Fatal("bob saw the change before the tick")
	}
	a.sendBeacon(false) // the next tick
	waitCond(t, "bob to see the change on the next tick", func() bool {
		return bytes.Equal(recB.adOf("alice"), []byte("a-2"))
	})

	// A peer without a session appears: the next change goes out at once.
	recC := newCollector()
	epC, err := m.Join("carol", recC)
	if err != nil {
		t.Fatal(err)
	}
	defer epC.Close()
	epC.SetAdvertisement([]byte("c-1"))
	waitCond(t, "alice to know carol", func() bool {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.peers["carol"] != nil
	})
	epA.SetAdvertisement([]byte("a-3"))
	waitCond(t, "carol to find alice without a tick", func() bool {
		return bytes.Equal(recC.adOf("alice"), []byte("a-3"))
	})
}
