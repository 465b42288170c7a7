package mpc_test

import (
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/mpc"
	"sos/internal/mpc/mediumtest"
)

// memWorld adapts MemMedium to the conformance suite. MemMedium makes
// every pair reachable by default, so the world severs each new joiner
// from the already-joined devices to match the suite's
// out-of-range-until-Link convention.
type memWorld struct {
	m      *mpc.MemMedium
	joined []mpc.PeerID
}

func (w *memWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	for _, other := range w.joined {
		w.m.SetReachable(peer, other, false)
	}
	ep, err := w.m.Join(peer, ev)
	if err != nil {
		return nil, err
	}
	w.joined = append(w.joined, peer)
	return ep, nil
}

func (w *memWorld) Link(a, b mpc.PeerID)   { w.m.SetReachable(a, b, true) }
func (w *memWorld) Unlink(a, b mpc.PeerID) { w.m.SetReachable(a, b, false) }
func (w *memWorld) Step()                  { time.Sleep(2 * time.Millisecond) }
func (w *memWorld) Close()                 {}

func TestMemMediumConformance(t *testing.T) {
	mediumtest.Run(t, func(t *testing.T) mediumtest.World {
		return &memWorld{m: mpc.NewMemMedium()}
	})
}

// simWorld adapts SimMedium: Link establishes a Bluetooth contact, and
// Step advances virtual time through the medium's event queue.
type simWorld struct {
	clk *clock.Virtual
	m   *mpc.SimMedium
}

func (w *simWorld) Join(peer mpc.PeerID, ev mpc.Events) (mpc.Endpoint, error) {
	return w.m.Join(peer, ev)
}

func (w *simWorld) Link(a, b mpc.PeerID)   { w.m.SetLink(a, b, mpc.Bluetooth) }
func (w *simWorld) Unlink(a, b mpc.PeerID) { w.m.CutLink(a, b) }

func (w *simWorld) Step() {
	w.clk.Advance(200 * time.Millisecond)
}

func (w *simWorld) Close() {}

func TestSimMediumConformance(t *testing.T) {
	mediumtest.Run(t, func(t *testing.T) mediumtest.World {
		clk := clock.NewVirtual(time.Unix(1700000000, 0))
		return &simWorld{clk: clk, m: mpc.NewSimMedium(clk)}
	})
}
