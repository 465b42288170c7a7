package adhoc

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/pki"
	"sos/internal/wire"
)

// capture is a Handler that records callbacks; single-threaded tests on
// the sim medium read it directly.
type capture struct {
	discovered map[mpc.PeerID]*wire.Advertisement
	gone       []mpc.PeerID
	ups        []*Link
	frames     []wire.Frame
	downs      []error
}

func newCapture() *capture {
	return &capture{discovered: make(map[mpc.PeerID]*wire.Advertisement)}
}

func (c *capture) PeerDiscovered(peer mpc.PeerID, ad *wire.Advertisement) { c.discovered[peer] = ad }
func (c *capture) PeerGone(peer mpc.PeerID)                               { c.gone = append(c.gone, peer) }
func (c *capture) LinkUp(link *Link)                                      { c.ups = append(c.ups, link) }
func (c *capture) FrameIn(_ *Link, f wire.Frame)                          { c.frames = append(c.frames, f) }
func (c *capture) LinkDown(_ *Link, reason error)                         { c.downs = append(c.downs, reason) }

// world bundles a CA-backed pair of devices on a sim medium.
type world struct {
	clk    *clock.Virtual
	medium *mpc.SimMedium
	ca     *pki.CA
	svc    *cloud.Service
}

var epoch = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	ca, err := pki.NewCA("AlleyOop Root CA", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return &world{
		clk:    clk,
		medium: mpc.NewSimMedium(clk),
		ca:     ca,
		svc:    cloud.New(ca, cloud.WithClock(clk.Now)),
	}
}

// device creates a bootstrapped manager joined to the sim medium.
func (w *world) device(t *testing.T, handle string, h Handler) (*Manager, *cloud.Credentials) {
	t.Helper()
	creds, err := cloud.Bootstrap(w.svc, handle, rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	m, err := New(Config{
		Medium:   w.medium,
		PeerName: mpc.PeerID(handle + "-phone"),
		Ident:    creds.Ident,
		CertDER:  creds.Cert.DER,
		Verifier: verifier,
		Handler:  h,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(%s): %v", handle, err)
	}
	return m, creds
}

// pump advances virtual time, firing the medium events due.
func (w *world) pump(d time.Duration) {
	w.clk.Advance(d)
}

func TestDiscoveryViaAdvertisement(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	alice := id.NewUserID("alice")
	if err := ma.Advertise(&wire.Advertisement{
		Peer:    string(ma.Self()),
		Gen:     1,
		Summary: map[id.UserID]uint64{alice: 7},
	}); err != nil {
		t.Fatalf("Advertise: %v", err)
	}
	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)

	ad := cb.discovered[ma.Self()]
	if ad == nil {
		t.Fatal("bob never discovered alice")
	}
	if ad.Summary[alice] != 7 {
		t.Errorf("advertised summary = %v, want alice:7", ad.Summary)
	}

	w.medium.CutLink(ma.Self(), mb.Self())
	w.pump(time.Second)
	if len(cb.gone) != 1 || cb.gone[0] != ma.Self() {
		t.Errorf("gone = %v, want [alice-phone]", cb.gone)
	}
}

func TestHandshakeEstablishesAuthenticatedLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, credsA := w.device(t, "alice", ca)
	mb, credsB := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.PeerToPeerWiFi)
	w.pump(2 * time.Second)

	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatalf("link ups = %d/%d, want 1/1", len(ca.ups), len(cb.ups))
	}
	// Each side sees the *user* behind the peer, verified via certificate.
	if got := ca.ups[0].User(); got != credsB.Ident.User {
		t.Errorf("alice sees user %v, want bob (%v)", got, credsB.Ident.User)
	}
	if got := cb.ups[0].User(); got != credsA.Ident.User {
		t.Errorf("bob sees user %v, want alice (%v)", got, credsA.Ident.User)
	}
	if ma.Stats().HandshakesOK != 1 || mb.Stats().HandshakesOK != 1 {
		t.Errorf("handshake counters = %+v / %+v", ma.Stats(), mb.Stats())
	}
}

func TestFramesFlowEncrypted(t *testing.T) {
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
	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatal("link never established")
	}

	alice := id.NewUserID("alice")
	req := &wire.Request{Wants: []wire.Want{{Author: alice, Seqs: []uint64{1, 2}}}}
	if err := ca.ups[0].SendFrame(req); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	w.pump(time.Second)

	if len(cb.frames) != 1 {
		t.Fatalf("bob frames = %d, want 1", len(cb.frames))
	}
	got, ok := cb.frames[0].(*wire.Request)
	if !ok || len(got.Wants) != 1 || got.Wants[0].Seqs[1] != 2 {
		t.Errorf("frame = %+v, want the request", cb.frames[0])
	}

	// Reply in the other direction.
	if err := cb.ups[0].SendFrame(&wire.Ack{}); err != nil {
		t.Fatalf("reply SendFrame: %v", err)
	}
	w.pump(time.Second)
	if len(ca.frames) != 1 {
		t.Fatalf("alice frames = %d, want 1", len(ca.frames))
	}
}

func TestRejectsForeignCA(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)

	// Mallory runs her own CA and issues herself a certificate.
	foreignCA, err := pki.NewCA("Evil CA", pki.WithClock(w.clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	malloryIdent, err := id.NewIdentity(id.NewUserID("mallory"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	malloryCert, err := foreignCA.Issue(malloryIdent.User, malloryIdent.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	malloryVerifier, err := pki.NewVerifier(foreignCA.RootDER(), w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mm, err := New(Config{
		Medium:   w.medium,
		PeerName: "mallory-phone",
		Ident:    malloryIdent,
		CertDER:  malloryCert.DER,
		Verifier: malloryVerifier,
		Handler:  cb,
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(mallory): %v", err)
	}

	w.medium.SetLink(ma.Self(), mm.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mm.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 || len(cb.ups) != 0 {
		t.Error("link established despite untrusted certificate")
	}
	if ma.Stats().CertRejections == 0 {
		t.Error("alice never recorded a certificate rejection")
	}
}

func TestRejectsRevokedCertAfterCRLSync(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, credsB := w.device(t, "bob", cb)

	// Bob's device is reported compromised; alice syncs the CRL while she
	// still has connectivity.
	if err := w.svc.RevokeUser(credsB.Ident.User); err != nil {
		t.Fatalf("RevokeUser: %v", err)
	}
	crl, err := w.svc.SyncCRL()
	if err != nil {
		t.Fatalf("SyncCRL: %v", err)
	}
	// Reach into alice's verifier through the config used at New; the
	// verifier is shared state.
	verifierOf(t, ma).UpdateCRL(crl)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mb.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 {
		t.Error("alice accepted a revoked certificate")
	}
	if ma.Stats().CertRejections == 0 {
		t.Error("no certificate rejection recorded")
	}
}

// verifierOf exposes the manager's verifier for CRL updates in tests.
func verifierOf(t *testing.T, m *Manager) *pki.Verifier {
	t.Helper()
	return m.cfg.Verifier
}

func TestRejectsStolenCertificate(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	_, credsB := w.device(t, "bob", cb)

	// Mallory presents bob's (valid) certificate but holds her own key.
	malloryIdent, err := id.NewIdentity(id.NewUserID("mallory"), rand.Reader)
	if err != nil {
		t.Fatalf("NewIdentity: %v", err)
	}
	verifier, err := pki.NewVerifier(credsB.RootDER, w.clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mm, err := New(Config{
		Medium:   w.medium,
		PeerName: "mallory-phone",
		Ident:    malloryIdent,
		CertDER:  credsB.Cert.DER, // stolen!
		Verifier: verifier,
		Handler:  newCapture(),
		Clock:    w.clk,
	})
	if err != nil {
		t.Fatalf("New(mallory): %v", err)
	}

	w.medium.SetLink(ma.Self(), mm.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := mm.Connect(ma.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if len(ca.ups) != 0 {
		t.Error("alice linked with a peer that does not own its certificate")
	}
}

func TestLinkDownOnContactLoss(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatal("link never established")
	}

	w.medium.CutLink(ma.Self(), mb.Self())
	w.pump(time.Second)

	if len(ca.downs) != 1 || len(cb.downs) != 1 {
		t.Fatalf("link downs = %d/%d, want 1/1", len(ca.downs), len(cb.downs))
	}
	// Sending on the dead link fails.
	if err := ca.ups[0].SendFrame(&wire.Ack{}); err == nil {
		t.Error("SendFrame on dead link succeeded")
	}
}

func TestByeClosesBothSides(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)
	if len(ca.ups) != 1 {
		t.Fatal("link never established")
	}

	if err := ca.ups[0].Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w.pump(time.Second)
	if len(ca.downs) != 1 || len(cb.downs) != 1 {
		t.Errorf("downs = %d/%d, want 1/1", len(ca.downs), len(cb.downs))
	}
}

func TestSimultaneousConnectYieldsOneLink(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)

	// Both sides connect before either Incoming fires.
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("alice Connect: %v", err)
	}
	if err := mb.Connect(ma.Self()); err != nil {
		t.Fatalf("bob Connect: %v", err)
	}
	w.pump(5 * time.Second)

	if len(ca.ups) != 1 || len(cb.ups) != 1 {
		t.Fatalf("link ups = %d/%d, want exactly 1/1", len(ca.ups), len(cb.ups))
	}
}

func TestConnectGuards(t *testing.T) {
	w := newWorld(t)
	ma, _ := w.device(t, "alice", newCapture())
	mb, _ := w.device(t, "bob", newCapture())

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	// Second connect while the first handshake is still pending.
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrLinkExists) {
		t.Errorf("double connect: err = %v, want ErrLinkExists", err)
	}
	w.pump(2 * time.Second)
	// And after establishment.
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrLinkExists) {
		t.Errorf("connect with live link: err = %v, want ErrLinkExists", err)
	}
}

func TestManagerClose(t *testing.T) {
	w := newWorld(t)
	ca, cb := newCapture(), newCapture()
	ma, _ := w.device(t, "alice", ca)
	mb, _ := w.device(t, "bob", cb)

	w.medium.SetLink(ma.Self(), mb.Self(), mpc.Bluetooth)
	w.pump(2 * time.Second)
	if err := ma.Connect(mb.Self()); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	w.pump(2 * time.Second)

	if err := ma.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if len(ca.downs) != 1 {
		t.Errorf("local LinkDown on close = %d, want 1", len(ca.downs))
	}
	if err := ma.Connect(mb.Self()); !errors.Is(err, ErrClosed) {
		t.Errorf("Connect after close: err = %v, want ErrClosed", err)
	}
	if err := ma.Advertise(&wire.Advertisement{Peer: string(ma.Self())}); !errors.Is(err, ErrClosed) {
		t.Errorf("Advertise after close: err = %v, want ErrClosed", err)
	}
	if err := ma.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t)
	creds, err := cloud.Bootstrap(w.svc, "carol", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, nil)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	base := Config{
		Medium:   w.medium,
		PeerName: "carol-phone",
		Ident:    creds.Ident,
		CertDER:  creds.Cert.DER,
		Verifier: verifier,
		Handler:  newCapture(),
	}

	broken := base
	broken.Medium = nil
	if _, err := New(broken); err == nil {
		t.Error("nil medium accepted")
	}
	broken = base
	broken.Handler = nil
	if _, err := New(broken); err == nil {
		t.Error("nil handler accepted")
	}
	broken = base
	broken.CertDER = nil
	if _, err := New(broken); err == nil {
		t.Error("missing certificate accepted")
	}
	if _, err := New(base); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestLiveMediumHandshake runs the full handshake over the goroutine-based
// medium to prove the manager is thread-safe in live mode.
func TestLiveMediumHandshake(t *testing.T) {
	medium := mpc.NewMemMedium()
	caSvc, err := pki.NewCA("AlleyOop Root CA")
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(caSvc)

	type side struct {
		mgr  *Manager
		ups  chan *Link
		recv chan wire.Frame
	}
	mk := func(handle string) side {
		creds, err := cloud.Bootstrap(svc, handle, rand.Reader)
		if err != nil {
			t.Fatalf("Bootstrap: %v", err)
		}
		verifier, err := pki.NewVerifier(creds.RootDER, nil)
		if err != nil {
			t.Fatalf("NewVerifier: %v", err)
		}
		s := side{ups: make(chan *Link, 1), recv: make(chan wire.Frame, 16)}
		mgr, err := New(Config{
			Medium:   medium,
			PeerName: mpc.PeerID(handle),
			Ident:    creds.Ident,
			CertDER:  creds.Cert.DER,
			Verifier: verifier,
			Handler:  &chanHandler{ups: s.ups, recv: s.recv},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		s.mgr = mgr
		return s
	}
	alice, bob := mk("alice"), mk("bob")
	defer alice.mgr.Close()
	defer bob.mgr.Close()

	if err := alice.mgr.Connect("bob"); err != nil {
		t.Fatalf("Connect: %v", err)
	}
	var aliceLink, bobLink *Link
	select {
	case aliceLink = <-alice.ups:
	case <-time.After(5 * time.Second):
		t.Fatal("alice link timeout")
	}
	select {
	case bobLink = <-bob.ups:
	case <-time.After(5 * time.Second):
		t.Fatal("bob link timeout")
	}

	if err := aliceLink.SendFrame(&wire.Ack{Refs: nil}); err != nil {
		t.Fatalf("SendFrame: %v", err)
	}
	select {
	case f := <-bob.recv:
		if _, ok := f.(*wire.Ack); !ok {
			t.Errorf("bob received %T, want *wire.Ack", f)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("bob frame timeout")
	}
	_ = bobLink
}

// chanHandler bridges Handler callbacks onto channels for live tests.
type chanHandler struct {
	ups  chan *Link
	recv chan wire.Frame
}

func (h *chanHandler) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (h *chanHandler) PeerGone(mpc.PeerID)                            {}
func (h *chanHandler) LinkUp(l *Link) {
	select {
	case h.ups <- l:
	default:
	}
}
func (h *chanHandler) FrameIn(_ *Link, f wire.Frame) {
	select {
	case h.recv <- f:
	default:
	}
}
func (h *chanHandler) LinkDown(*Link, error) {}
