package adhoc

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/wire"
)

// mustEncode encodes a frame or fails the test.
func mustEncode(t testing.TB, f wire.Frame) []byte {
	t.Helper()
	enc, err := wire.Encode(f)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return enc
}

func TestAdvertiseRefusesNonBeaconFrames(t *testing.T) {
	w := newWorld(t)
	ma, _ := w.device(t, "alice", newCapture())
	for name, tc := range map[string]struct {
		enc  []byte
		want error
	}{
		"delta":   {mustEncode(t, &wire.Advertisement{Peer: "a", Gen: 2, BaseGen: 1}), wire.ErrBadDelta},
		"chunked": {mustEncode(t, &wire.Advertisement{Peer: "a", Gen: 2, Chunk: 1}), wire.ErrBadChunk},
		"bye":     {mustEncode(t, &wire.Bye{}), wire.ErrBadType},
	} {
		if err := ma.Advertise(tc.enc); !errors.Is(err, tc.want) {
			t.Errorf("%s: Advertise = %v, want %v", name, err, tc.want)
		}
	}
}

// TestLinkedPeerBeaconSkipAllocBudget checks that a beacon from a peer
// with an established link never reaches the handler, is counted, and
// costs no allocation, while an unlinked peer's beacon is still decoded.
func TestLinkedPeerBeaconSkipAllocBudget(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)
	w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 {
		t.Fatalf("alice link ups = %d, want 1", len(ca.ups))
	}

	summary := make(map[id.UserID]uint64, 1024)
	for i := 0; i < 1024; i++ {
		summary[id.NewUserID(fmt.Sprintf("skip-%d", i))] = uint64(i + 1)
	}
	beacon := mustEncode(t, &wire.Advertisement{Peer: string(mb.Self()), Gen: 9, Summary: summary})
	ev := (*events)(ma)
	allocs := testing.AllocsPerRun(100, func() { ev.PeerFound(mb.Self(), beacon) })
	if allocs != 0 {
		t.Errorf("PeerFound from a linked peer allocates %.1f, want 0", allocs)
	}
	if _, seen := ca.discovered[mb.Self()]; seen {
		t.Error("a linked peer's beacon reached the handler")
	}
	if got := ma.Stats().BeaconsSkipped; got < 100 {
		t.Errorf("BeaconsSkipped = %d, want >= 100", got)
	}

	ev.PeerFound("carol-phone", beacon)
	if ad := ca.discovered["carol-phone"]; ad == nil || len(ad.Summary) != 1024 {
		t.Error("an unlinked peer's beacon was not decoded and surfaced")
	}
}
