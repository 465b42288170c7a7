package core

import (
	"crypto/rand"
	"errors"
	"testing"
	"time"

	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
)

var epoch = time.Date(2017, 4, 6, 8, 0, 0, 0, time.UTC)

// world is a sim-medium universe with a CA-backed cloud.
type world struct {
	t      *testing.T
	clk    *clock.Virtual
	medium *mpc.SimMedium
	svc    *cloud.Service
	nodes  map[string]*node
}

// node is one simulated device running the full middleware.
type node struct {
	mw       *Middleware
	creds    *cloud.Credentials
	received []*msg.Message
	ups      []id.UserID
	downs    []id.UserID
}

func newWorld(t *testing.T) *world {
	t.Helper()
	clk := clock.NewVirtual(epoch)
	ca, err := pki.NewCA("AlleyOop Root CA", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return &world{
		t:      t,
		clk:    clk,
		medium: mpc.NewSimMedium(clk),
		svc:    cloud.New(ca, cloud.WithClock(clk.Now)),
		nodes:  make(map[string]*node),
	}
}

func (w *world) node(handle, scheme string) *node {
	w.t.Helper()
	creds, err := cloud.Bootstrap(w.svc, handle, rand.Reader)
	if err != nil {
		w.t.Fatalf("Bootstrap(%s): %v", handle, err)
	}
	n := &node{creds: creds}
	mw, err := New(Config{
		Creds:    creds,
		Medium:   w.medium,
		PeerName: mpc.PeerID(handle + "-phone"),
		Scheme:   scheme,
		Clock:    w.clk,
		OnReceive: func(m *msg.Message, from id.UserID) {
			n.received = append(n.received, m)
		},
		OnPeerUp:   func(u id.UserID) { n.ups = append(n.ups, u) },
		OnPeerDown: func(u id.UserID) { n.downs = append(n.downs, u) },
	})
	if err != nil {
		w.t.Fatalf("New(%s): %v", handle, err)
	}
	n.mw = mw
	w.nodes[handle] = n
	return n
}

// link brings two nodes into contact.
func (w *world) link(a, b *node, tech mpc.Technology) {
	w.medium.SetLink(a.mw.Peer(), b.mw.Peer(), tech)
}

// cut ends a contact.
func (w *world) cut(a, b *node) {
	w.medium.CutLink(a.mw.Peer(), b.mw.Peer())
}

// pump advances virtual time, firing every event due.
func (w *world) pump(d time.Duration) {
	w.clk.Advance(d)
}

func refs(ms []*msg.Message) map[msg.Ref]*msg.Message {
	out := make(map[msg.Ref]*msg.Message, len(ms))
	for _, m := range ms {
		out[m.Ref()] = m
	}
	return out
}

func TestEpidemicOneHopDelivery(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)

	post, err := alice.mw.Post([]byte("hello opportunistic world"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)

	got := refs(bob.received)
	m, ok := got[post.Ref()]
	if !ok {
		t.Fatalf("bob never received the post; got %d messages", len(bob.received))
	}
	if string(m.Payload) != "hello opportunistic world" {
		t.Errorf("payload = %q", m.Payload)
	}
	if m.Hops != 1 {
		t.Errorf("hops = %d, want 1 (direct from author)", m.Hops)
	}
	if len(bob.ups) == 0 || bob.ups[0] != alice.mw.User() {
		t.Errorf("bob peer-ups = %v, want alice", bob.ups)
	}
}

func TestEpidemicBidirectionalExchange(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)

	if _, err := alice.mw.Post([]byte("from alice")); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if _, err := bob.mw.Post([]byte("from bob")); err != nil {
		t.Fatalf("Post: %v", err)
	}

	w.link(alice, bob, mpc.PeerToPeerWiFi)
	w.pump(10 * time.Second)

	if len(alice.received) != 1 || len(bob.received) != 1 {
		t.Errorf("received counts alice=%d bob=%d, want 1/1", len(alice.received), len(bob.received))
	}
}

func TestEpidemicMultiHopRelay(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)
	carol := w.node("carol", routing.SchemeEpidemic)

	post, err := alice.mw.Post([]byte("travels two hops"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	// Alice meets bob; they part; bob later meets carol. Alice and carol
	// are never in contact — the message must be carried.
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)
	w.cut(alice, bob)
	w.pump(time.Hour)

	w.link(bob, carol, mpc.Bluetooth)
	w.pump(10 * time.Second)

	got := refs(carol.received)
	m, ok := got[post.Ref()]
	if !ok {
		t.Fatal("carol never received alice's post via bob")
	}
	if m.Hops != 2 {
		t.Errorf("hops = %d, want 2", m.Hops)
	}
}

func TestInterestOnlySubscribersReceive(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeInterest)
	bob := w.node("bob", routing.SchemeInterest)
	carol := w.node("carol", routing.SchemeInterest)

	bob.mw.Subscribe(alice.mw.User()) // bob follows alice; carol does not

	post, err := alice.mw.Post([]byte("for my subscribers"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	w.link(alice, bob, mpc.Bluetooth)
	w.link(alice, carol, mpc.Bluetooth)
	w.pump(15 * time.Second)

	if _, ok := refs(bob.received)[post.Ref()]; !ok {
		t.Error("subscriber bob did not receive the post")
	}
	if _, ok := refs(carol.received)[post.Ref()]; ok {
		t.Error("non-subscriber carol received the post under IB routing")
	}
}

// TestInterestForwarderDissemination reproduces the paper's Fig. 3
// scenario: Bob, a subscriber of Alice, becomes a message forwarder;
// Carol (also a subscriber) later receives Alice's message from Bob along
// with Alice's certificate, and verifies both.
func TestInterestForwarderDissemination(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeInterest)
	bob := w.node("bob", routing.SchemeInterest)
	carol := w.node("carol", routing.SchemeInterest)

	bob.mw.Subscribe(alice.mw.User())
	carol.mw.Subscribe(alice.mw.User())

	post, err := alice.mw.Post([]byte("caught mid-air like an alley oop"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)
	w.cut(alice, bob)
	w.pump(30 * time.Minute)

	w.link(bob, carol, mpc.Bluetooth)
	w.pump(10 * time.Second)

	m, ok := refs(carol.received)[post.Ref()]
	if !ok {
		t.Fatal("carol never received alice's post from forwarder bob")
	}
	if m.Hops != 2 {
		t.Errorf("hops = %d, want 2", m.Hops)
	}
	// The forwarded copy carries Alice's certificate; verify it names her.
	cert, err := carol.mw.Verifier().VerifyFor(m.CertDER, alice.mw.User())
	if err != nil {
		t.Fatalf("forwarded certificate: %v", err)
	}
	if err := m.VerifyWithKey(cert.Key); err != nil {
		t.Errorf("forwarded message signature: %v", err)
	}
}

func TestFollowPublishesAndSubscribes(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeInterest)
	bob := w.node("bob", routing.SchemeInterest)

	follow, err := bob.mw.Follow(alice.mw.User())
	if err != nil {
		t.Fatalf("Follow: %v", err)
	}
	if follow.Kind != msg.KindFollow || follow.Subject != alice.mw.User() {
		t.Errorf("follow action = %+v", follow)
	}
	if !bob.mw.Store().IsSubscribed(alice.mw.User()) {
		t.Error("Follow did not subscribe")
	}

	if _, err := bob.mw.Unfollow(alice.mw.User()); err != nil {
		t.Fatalf("Unfollow: %v", err)
	}
	if bob.mw.Store().IsSubscribed(alice.mw.User()) {
		t.Error("Unfollow did not unsubscribe")
	}
}

func TestDirectMessageEndToEnd(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)
	mallory := w.node("mallory", routing.SchemeEpidemic)

	direct, err := alice.mw.Direct(bob.creds.Cert, []byte("for bob's eyes only"))
	if err != nil {
		t.Fatalf("Direct: %v", err)
	}

	// Route through mallory: alice→mallory, then mallory→bob.
	w.link(alice, mallory, mpc.Bluetooth)
	w.pump(10 * time.Second)
	w.cut(alice, mallory)
	w.pump(time.Minute)
	w.link(mallory, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)

	// Mallory carries the envelope but cannot open it.
	carried, ok := refs(mallory.received)[direct.Ref()]
	if !ok {
		t.Fatal("mallory never carried the direct message")
	}
	if _, err := mallory.mw.OpenDirect(carried); err == nil {
		t.Error("forwarder opened an end-to-end encrypted message")
	}

	delivered, ok := refs(bob.received)[direct.Ref()]
	if !ok {
		t.Fatal("bob never received the direct message")
	}
	plain, err := bob.mw.OpenDirect(delivered)
	if err != nil {
		t.Fatalf("OpenDirect: %v", err)
	}
	if string(plain) != "for bob's eyes only" {
		t.Errorf("plaintext = %q", plain)
	}
}

// TestTamperedMessageRejected models a compromised device that alters a
// carried message: the next hop must refuse it.
func TestTamperedMessageRejected(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)
	carol := w.node("carol", routing.SchemeEpidemic)

	post, err := alice.mw.Post([]byte("original text"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)
	w.cut(alice, bob)
	w.pump(time.Minute)

	// Compromised bob rewrites the payload in its local store (bypassing
	// the protocol, as malware on the device would).
	stored, _ := bob.mw.Store().Get(post.Ref())
	tampered := stored.Clone()
	tampered.Payload = []byte("fake news")
	// Force-replace: build a fresh store state by writing over the ref is
	// not allowed (dedupe), so craft a *new* seq the store has not seen.
	tampered.Seq = stored.Seq + 1
	if _, err := bob.mw.Store().Put(tampered); err != nil {
		t.Fatalf("Put tampered: %v", err)
	}
	if err := bob.mw.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	w.link(bob, carol, mpc.Bluetooth)
	w.pump(10 * time.Second)

	// Carol accepted the authentic message but rejected the forged one.
	got := refs(carol.received)
	if _, ok := got[post.Ref()]; !ok {
		t.Error("carol rejected the authentic message")
	}
	if _, ok := got[tampered.Ref()]; ok {
		t.Error("carol accepted a message with a forged payload")
	}
	if carol.mw.Stats().Message.VerifyFailures == 0 {
		t.Error("no verification failure recorded")
	}
}

func TestAbortedTransferRecoversOnNextEncounter(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)

	// A large post (~1.5 s over bluetooth) so the contact can end
	// mid-transfer.
	big := make([]byte, 384<<10)
	post, err := alice.mw.Post(big)
	if err != nil {
		t.Fatalf("Post: %v", err)
	}

	w.link(alice, bob, mpc.Bluetooth)
	// Long enough for handshake + request, short enough that the batch is
	// still in flight.
	w.pump(2500 * time.Millisecond)
	w.cut(alice, bob)
	w.pump(time.Minute)

	if _, ok := refs(bob.received)[post.Ref()]; ok {
		t.Skip("transfer completed before the cut; timing-sensitive setup")
	}

	// Second encounter: the message manager knows the message was never
	// acknowledged and the exchange simply re-runs.
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(time.Minute)

	if _, ok := refs(bob.received)[post.Ref()]; !ok {
		t.Fatal("message lost forever after aborted transfer")
	}
	if alice.mw.Stats().Message.TransfersAborted == 0 {
		t.Error("aborted transfer not recorded")
	}
}

func TestSchemeSwitchAtRuntime(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)

	if alice.mw.Scheme() != routing.SchemeEpidemic {
		t.Errorf("initial scheme = %s", alice.mw.Scheme())
	}
	if err := alice.mw.SetScheme(routing.SchemeInterest); err != nil {
		t.Fatalf("SetScheme: %v", err)
	}
	if alice.mw.Scheme() != routing.SchemeInterest {
		t.Errorf("scheme after switch = %s", alice.mw.Scheme())
	}
	if err := alice.mw.SetScheme("bogus"); !errors.Is(err, routing.ErrUnknownScheme) {
		t.Errorf("bogus scheme: err = %v", err)
	}
	if got := len(alice.mw.Schemes()); got != 4 {
		t.Errorf("schemes = %d, want 4", got)
	}
}

func TestSprayAndWaitDelivers(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeSprayAndWait)
	bob := w.node("bob", routing.SchemeSprayAndWait)

	post, err := alice.mw.Post([]byte("spray me"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)

	if _, ok := refs(bob.received)[post.Ref()]; !ok {
		t.Fatal("spray-and-wait failed to deliver on direct contact")
	}
}

func TestProphetDelivers(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeProphet)
	bob := w.node("bob", routing.SchemeProphet)

	bob.mw.Subscribe(alice.mw.User())
	// Refresh bob's beacon so gossip reflects the subscription.
	if err := bob.mw.Advertise(); err != nil {
		t.Fatalf("Advertise: %v", err)
	}

	post, err := alice.mw.Post([]byte("probabilistic"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(10 * time.Second)

	if _, ok := refs(bob.received)[post.Ref()]; !ok {
		t.Fatal("prophet failed to deliver to a direct subscriber")
	}
}

func TestSyncWithCloud(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)

	if _, err := alice.mw.Post([]byte("p1")); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if _, err := alice.mw.Post([]byte("p2")); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := alice.mw.SyncWithCloud(w.svc); err != nil {
		t.Fatalf("SyncWithCloud: %v", err)
	}
	actions, err := w.svc.SyncedActions(alice.mw.User())
	if err != nil {
		t.Fatalf("SyncedActions: %v", err)
	}
	if len(actions) != 2 {
		t.Errorf("synced actions = %d, want 2", len(actions))
	}

	// Offline sync fails loudly.
	w.svc.SetReachable(false)
	if err := alice.mw.SyncWithCloud(w.svc); !errors.Is(err, cloud.ErrOffline) {
		t.Errorf("offline sync: err = %v, want ErrOffline", err)
	}
}

func TestCloseStopsTraffic(t *testing.T) {
	w := newWorld(t)
	alice := w.node("alice", routing.SchemeEpidemic)
	bob := w.node("bob", routing.SchemeEpidemic)

	if _, err := alice.mw.Post([]byte("before close")); err != nil {
		t.Fatalf("Post: %v", err)
	}
	if err := bob.mw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w.link(alice, bob, mpc.Bluetooth)
	w.pump(30 * time.Second)

	if len(bob.received) != 0 {
		t.Error("closed node still received messages")
	}
}

func TestConfigValidation(t *testing.T) {
	w := newWorld(t)
	creds, err := cloud.Bootstrap(w.svc, "val", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	if _, err := New(Config{Medium: w.medium}); err == nil {
		t.Error("missing creds accepted")
	}
	if _, err := New(Config{Creds: creds}); err == nil {
		t.Error("missing medium accepted")
	}
	if _, err := New(Config{Creds: creds, Medium: w.medium, Scheme: "nope", Clock: w.clk}); err == nil {
		t.Error("unknown scheme accepted")
	}
}

func TestHopCountsAccumulateAlongPath(t *testing.T) {
	w := newWorld(t)
	names := []string{"n1", "n2", "n3", "n4"}
	chain := make([]*node, len(names))
	for i, name := range names {
		chain[i] = w.node(name, routing.SchemeEpidemic)
	}
	post, err := chain[0].mw.Post([]byte("chain letter"))
	if err != nil {
		t.Fatalf("Post: %v", err)
	}
	// Sequential pairwise contacts: n1↔n2, then n2↔n3, then n3↔n4.
	for i := 0; i+1 < len(chain); i++ {
		w.link(chain[i], chain[i+1], mpc.Bluetooth)
		w.pump(15 * time.Second)
		w.cut(chain[i], chain[i+1])
		w.pump(time.Minute)
	}
	m, ok := refs(chain[3].received)[post.Ref()]
	if !ok {
		t.Fatal("chain delivery failed")
	}
	if m.Hops != 3 {
		t.Errorf("hops at n4 = %d, want 3", m.Hops)
	}
}
