package message

import (
	"bytes"
	"crypto/rand"
	"fmt"
	mrand "math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/cloud"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/store"
	"sos/internal/wire"
)

// beaconRig is a message manager bound to an ad hoc manager on a
// simulated medium, so tests can drive Advertise and read the beacon.
type beaconRig struct {
	mgr    *Manager
	st     *store.Store
	rm     *routing.Manager
	ad     *adhoc.Manager
	clk    *clock.Virtual
	medium *mpc.SimMedium
	svc    *cloud.Service
}

func newBeaconRig(t testing.TB, quota int) *beaconRig {
	t.Helper()
	clk := clock.NewVirtual(time.Date(2017, 4, 3, 9, 0, 0, 0, time.UTC))
	ca, err := pki.NewCA("beacon-root", pki.WithClock(clk.Now))
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	svc := cloud.New(ca, cloud.WithClock(clk.Now))
	creds, err := cloud.Bootstrap(svc, "alice", rand.Reader)
	if err != nil {
		t.Fatalf("Bootstrap: %v", err)
	}
	st := store.NewMemory(creds.Ident.User, store.Options{MaxMessages: quota, Clock: clk})
	rm, err := routing.NewManager(st, routing.Options{Clock: clk})
	if err != nil {
		t.Fatalf("routing.NewManager: %v", err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, clk.Now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	mgr, err := New(Config{Store: st, Routing: rm, Verifier: verifier, Clock: clk, ResyncInterval: -1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	medium := mpc.NewSimMedium(clk)
	ad, err := adhoc.New(adhoc.Config{
		Medium: medium, PeerName: "alice-phone", Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: verifier, Handler: mgr, Clock: clk,
	})
	if err != nil {
		t.Fatalf("adhoc.New: %v", err)
	}
	mgr.Bind(ad)
	return &beaconRig{mgr: mgr, st: st, rm: rm, ad: ad, clk: clk, medium: medium, svc: svc}
}

// put stores one message by author at seq.
func (r *beaconRig) put(t testing.TB, author id.UserID, seq uint64) {
	t.Helper()
	if _, err := r.st.Put(&msg.Message{
		Author: author, Seq: seq, Kind: msg.KindPost, Created: r.clk.Now(),
	}); err != nil {
		t.Fatalf("Put: %v", err)
	}
}

// fullEncoding is wire.Encode of the node's complete summary: what the
// beacon must equal byte for byte while it fits the cap.
func (r *beaconRig) fullEncoding(t testing.TB) []byte {
	t.Helper()
	enc, err := wire.Encode(&wire.Advertisement{
		Peer:       string(r.ad.Self()),
		Gen:        r.st.Generation(),
		Summary:    r.st.Summary(),
		SchemeData: r.rm.Current().SchemeData(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func authorPool(prefix string, n int) []id.UserID {
	out := make([]id.UserID, n)
	for i := range out {
		out[i] = id.NewUserID(fmt.Sprintf("%s-%d", prefix, i))
	}
	return out
}

// TestBeaconPatchMatchesFullEncode runs random put, evict and scheme
// switch sequences and checks after every Advertise that the patched
// beacon is byte-equal to encoding the full summary afresh, and that it
// was rebuilt only once.
func TestBeaconPatchMatchesFullEncode(t *testing.T) {
	r := newBeaconRig(t, 200) // a small quota keeps evictions coming
	rng := mrand.New(mrand.NewSource(11))
	authors := authorPool("diff", 900)
	seqs := make(map[id.UserID]uint64)
	schemes := []string{routing.SchemeInterest, routing.SchemeEpidemic, routing.SchemeSprayAndWait}
	for round := 0; round < 400; round++ {
		for n := rng.Intn(12); n >= 0; n-- {
			a := authors[rng.Intn(len(authors))]
			seqs[a] += uint64(rng.Intn(3) + 1) // gaps are fine
			r.put(t, a, seqs[a])
		}
		if rng.Intn(8) == 0 {
			if err := r.rm.Use(schemes[rng.Intn(len(schemes))]); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.mgr.Advertise(); err != nil {
			t.Fatalf("round %d: Advertise: %v", round, err)
		}
		if got, want := r.mgr.beacon.enc.Bytes(), r.fullEncoding(t); !bytes.Equal(got, want) {
			t.Fatalf("round %d: patched beacon (%d B) differs from the full encoding (%d B)", round, len(got), len(want))
		}
	}
	if st := r.st.Stats(); st.Evictions == 0 {
		t.Fatal("the quota never evicted; the test lost its eviction coverage")
	}
	if st := r.mgr.Stats(); st.BeaconRebuilds != 1 || st.BeaconPatches == 0 {
		t.Errorf("beacon builds: %d rebuilds, %d patches; want 1 rebuild and the rest patches", st.BeaconRebuilds, st.BeaconPatches)
	}
}

// TestBeaconAboveCapKeepsRecentAuthors grows a store past
// MaxBeaconSummary authors. Up to the cap the beacon equals the full
// encoding; past it, the beacon decodes to exactly MaxBeaconSummary
// entries, each at the store's current seq, and holds every author of
// the most recent rounds that fit in the cap.
func TestBeaconAboveCapKeepsRecentAuthors(t *testing.T) {
	r := newBeaconRig(t, 0)
	rng := mrand.New(mrand.NewSource(3))
	authors := authorPool("cap", 3000)
	seqs := make(map[id.UserID]uint64)
	lastRound := make(map[id.UserID]int)
	known := 0
	for round := 1; round <= 300; round++ {
		for n := rng.Intn(20); n >= 0; n-- {
			var a id.UserID
			if known < len(authors) && (known < 800 || rng.Intn(2) == 0) {
				a = authors[known] // a new author enters
				known++
			} else {
				a = authors[rng.Intn(known)]
			}
			seqs[a]++
			r.put(t, a, seqs[a])
			lastRound[a] = round
		}
		if err := r.mgr.Advertise(); err != nil {
			t.Fatalf("round %d: Advertise: %v", round, err)
		}
		enc := r.mgr.beacon.enc.Bytes()
		if r.st.SummarySize() <= MaxBeaconSummary {
			if !bytes.Equal(enc, r.fullEncoding(t)) {
				t.Fatalf("round %d: beacon at %d authors differs from the full encoding", round, r.st.SummarySize())
			}
			continue
		}
		f, err := wire.Decode(enc)
		if err != nil {
			t.Fatalf("round %d: beacon does not decode: %v", round, err)
		}
		ad := f.(*wire.Advertisement)
		if len(ad.Summary) != MaxBeaconSummary || ad.Gen != r.st.Generation() {
			t.Fatalf("round %d: beacon has %d entries at gen %d, want %d at gen %d",
				round, len(ad.Summary), ad.Gen, MaxBeaconSummary, r.st.Generation())
		}
		for a, seq := range ad.Summary {
			if seq != r.st.MaxSeq(a) {
				t.Fatalf("round %d: beacon carries %v at seq %d, store holds %d", round, a, seq, r.st.MaxSeq(a))
			}
		}
		// Every author of the newest rounds whose authors together fit
		// the cap must be present; authors of one round tie in recency.
		byRound := make(map[int][]id.UserID)
		for a, rd := range lastRound {
			byRound[rd] = append(byRound[rd], a)
		}
		rounds := make([]int, 0, len(byRound))
		for rd := range byRound {
			rounds = append(rounds, rd)
		}
		slices.Sort(rounds)
		kept := 0
		for i := len(rounds) - 1; i >= 0 && kept+len(byRound[rounds[i]]) <= MaxBeaconSummary; i-- {
			for _, a := range byRound[rounds[i]] {
				if _, ok := ad.Summary[a]; !ok {
					t.Fatalf("round %d: author changed in round %d missing from the beacon", round, rounds[i])
				}
			}
			kept += len(byRound[rounds[i]])
		}
	}
	if r.st.SummarySize() <= MaxBeaconSummary+500 {
		t.Fatalf("store reached only %d authors; the test never went far past the cap", r.st.SummarySize())
	}
	if st := r.mgr.Stats(); st.BeaconRebuilds != 1 {
		t.Errorf("beacon rebuilt %d times, want once", st.BeaconRebuilds)
	}
}

// TestBeaconRebuildAboveCap starts a beacon on a store already past the
// cap: the rebuild must pick exactly the authors of the last
// MaxBeaconSummary generations, each at its current seq.
func TestBeaconRebuildAboveCap(t *testing.T) {
	r := newBeaconRig(t, 0)
	authors := authorPool("rebuild", 3000)
	for _, a := range authors {
		r.put(t, a, 1)
	}
	for _, a := range authors[:100] {
		r.put(t, a, 2) // the oldest authors change again, last
	}
	if err := r.mgr.Advertise(); err != nil {
		t.Fatal(err)
	}
	f, err := wire.Decode(r.mgr.beacon.enc.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got := f.(*wire.Advertisement).Summary
	want := make(map[id.UserID]uint64, MaxBeaconSummary)
	for _, a := range authors[:100] {
		want[a] = 2
	}
	for _, a := range authors[len(authors)-(MaxBeaconSummary-100):] {
		want[a] = 1
	}
	if len(got) != len(want) {
		t.Fatalf("rebuilt beacon has %d entries, want %d", len(got), len(want))
	}
	for a, seq := range want {
		if got[a] != seq {
			t.Fatalf("rebuilt beacon carries %v at seq %d, want %d", a, got[a], seq)
		}
	}
}

// nopHandler is an ad hoc handler that ignores everything.
type nopHandler struct{ up chan *adhoc.Link }

func (nopHandler) PeerDiscovered(mpc.PeerID, *wire.Advertisement) {}
func (nopHandler) PeerGone(mpc.PeerID)                            {}
func (h nopHandler) LinkUp(l *adhoc.Link)                         { h.up <- l }
func (nopHandler) FrameIn(*adhoc.Link, wire.Frame)                {}
func (nopHandler) LinkDown(*adhoc.Link, error)                    {}

// TestAdvertiseAllocBudget pins the per-post cost of Advertise on a
// linked node with 1,000 authors: patching the beacon, publishing it and
// pushing one delta must take a small constant number of allocations,
// not one per author.
func TestAdvertiseAllocBudget(t *testing.T) {
	r := newBeaconRig(t, 0)
	authors := authorPool("budget", 1000)
	for _, a := range authors {
		r.put(t, a, 1)
	}
	creds, err := cloud.Bootstrap(r.svc, "bob", rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	verifier, err := pki.NewVerifier(creds.RootDER, r.clk.Now)
	if err != nil {
		t.Fatal(err)
	}
	bob := nopHandler{up: make(chan *adhoc.Link, 1)}
	bobAd, err := adhoc.New(adhoc.Config{
		Medium: r.medium, PeerName: "bob-phone", Ident: creds.Ident,
		CertDER: creds.Cert.DER, Verifier: verifier, Handler: bob, Clock: r.clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.mgr.Advertise(); err != nil {
		t.Fatal(err)
	}
	r.medium.SetLink("alice-phone", "bob-phone", mpc.PeerToPeerWiFi)
	r.clk.Advance(2 * time.Second)
	if err := bobAd.Connect("alice-phone"); err != nil {
		t.Fatal(err)
	}
	r.clk.Advance(2 * time.Second)
	if _, links, _ := r.mgr.SyncState(); links != 1 {
		t.Fatalf("alice has %d links, want 1", links)
	}

	const runs = 200
	var total uint64
	var before, after runtime.MemStats
	for i := 0; i < runs; i++ {
		r.put(t, authors[i%len(authors)], uint64(2+i/len(authors)))
		runtime.ReadMemStats(&before)
		if err := r.mgr.Advertise(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
		r.clk.Advance(50 * time.Millisecond)
	}
	const budget = 24
	if per := float64(total) / runs; per > budget {
		t.Errorf("Advertise on a linked 1k-author node allocates %.1f per post, budget %d", per, budget)
	}
	if st := r.mgr.Stats(); st.AdsDeltaSent < runs || st.BeaconRebuilds != 1 {
		t.Errorf("stats = %d deltas, %d beacon rebuilds; want >= %d deltas and one rebuild", st.AdsDeltaSent, st.BeaconRebuilds, runs)
	}
}
