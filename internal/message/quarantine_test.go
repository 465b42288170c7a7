package message_test

import (
	"math/rand"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/message"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// TestQuarantineEndsInRelink trips a quarantine and checks that the pair
// links again once the term is over, although neither beacon changes:
// the redial ladder skips misbehaviour drops and unchanged beacons never
// re-fire discovery, so the quarantining side must try on its own. The
// whole exchange runs on one virtual clock over SimMedium.
func TestQuarantineEndsInRelink(t *testing.T) {
	clk := clock.NewVirtual(time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC))
	medium := mpc.NewSimMedium(clk)
	entropy := rand.New(rand.NewSource(7))
	ca, err := pki.NewCA("quarantine-root", pki.WithClock(clk.Now), pki.WithEntropy(entropy))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(ca, cloud.WithClock(clk.Now))
	aliceCreds, err := cloud.Bootstrap(svc, "alice", entropy)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	bobCreds, err := cloud.Bootstrap(svc, "bob", entropy)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}

	// alice runs the real message manager; bob is a scripted device whose
	// beacon offers a message alice wants.
	st := store.New(aliceCreds.Ident.User)
	rm, err := routing.NewManager(st, routing.Options{Clock: clk})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(aliceCreds.RootDER, clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mgr, err := message.New(message.Config{
		Store: st, Routing: rm, Verifier: verifier, Clock: clk,
		AutoConnect: true, ResyncInterval: -1,
	})
	if err != nil {
		t.Fatalf("message.New: %v", err)
	}
	aliceAd, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "alice-phone", Ident: aliceCreds.Ident,
		CertDER: aliceCreds.Cert.DER, Verifier: verifier, Handler: mgr, Clock: clk, Rand: entropy,
	})
	if err != nil {
		t.Fatalf("adhoc.New(alice): %v", err)
	}
	mgr.Bind(aliceAd)
	if err := mgr.Advertise(); err != nil {
		t.Fatalf("Advertise(alice): %v", err)
	}

	bobVerifier, err := pki.NewVerifier(bobCreds.RootDER, clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	bob := &frameCapture{}
	bobAd, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "bob-phone", Ident: bobCreds.Ident,
		CertDER: bobCreds.Cert.DER, Verifier: bobVerifier, Handler: bob, Clock: clk, Rand: entropy,
	})
	if err != nil {
		t.Fatalf("adhoc.New(bob): %v", err)
	}
	beacon := &wire.Advertisement{Peer: "bob-phone", Summary: map[id.UserID]uint64{bobCreds.Ident.User: 1}}
	if err := bobAd.Advertise(beacon); err != nil {
		t.Fatalf("Advertise(bob): %v", err)
	}

	medium.SetLink("alice-phone", "bob-phone", mpc.PeerToPeerWiFi)
	clk.Advance(2 * time.Second)
	if bob.linkCount() != 1 {
		t.Fatalf("links at bob = %d after discovery, want 1", bob.linkCount())
	}

	// Oversized want-lists score 2 points each; the fifth crosses the
	// threshold of 8 whatever decayed in between.
	oversized := &wire.Request{Wants: []wire.Want{{Author: aliceCreds.Ident.User, Seqs: make([]uint64, 16385)}}}
	for i := range oversized.Wants[0].Seqs {
		oversized.Wants[0].Seqs[i] = uint64(i + 1)
	}
	for i := 0; i < 5; i++ {
		if err := bob.link(0).SendFrame(oversized); err != nil {
			t.Fatalf("SendFrame: %v", err)
		}
	}
	clk.Advance(time.Second)
	if st := mgr.Stats(); st.Quarantines != 1 {
		t.Fatalf("Quarantines = %d, want 1 (stats %+v)", st.Quarantines, st)
	}
	if links := mgr.ActiveLinks(); len(links) != 0 {
		t.Fatalf("quarantined peer still linked: %v", links)
	}

	// The 5 s term is still running: no relink yet.
	clk.Advance(3 * time.Second)
	if bob.linkCount() != 1 {
		t.Fatalf("relinked during the quarantine term (links at bob = %d)", bob.linkCount())
	}
	clk.Advance(3 * time.Second)
	if bob.linkCount() != 2 {
		t.Fatalf("links at bob = %d after the term, want 2 (stats %+v)", bob.linkCount(), mgr.Stats())
	}
	if links := mgr.ActiveLinks(); len(links) != 1 || links[0] != bobCreds.Ident.User {
		t.Fatalf("alice's links after the term = %v, want [bob]", links)
	}
	if st := mgr.Stats(); st.Reconnects != 1 {
		t.Errorf("Reconnects = %d, want 1", st.Reconnects)
	}
}
