// Package message implements the SOS message manager (paper §III-C): the
// layer between the routing manager and the ad hoc manager. It notifies
// the active routing protocol whenever a peer is discovered or lost,
// reacts to connection-state changes — including knowing which messages
// were not transferred when a connection breaks — and translates between
// the routing layer's view (summaries, wants, messages) and the ad hoc
// layer's frames.
//
// Exchange protocol on an established link:
//
//  1. Both sides send an authenticated in-session Advertisement (summary +
//     scheme gossip). In-session summaries supersede the plain-text beacon,
//     which an attacker could forge.
//  2. Each side asks the active scheme which advertised messages to pull
//     and sends a Request.
//  3. Requests are answered with Batches; every message carries the
//     originator's certificate, so the receiver verifies the certificate
//     chain and the author signature before storing (paper Fig. 3b).
//  4. Stored messages are acknowledged; unacknowledged transfers are
//     counted as aborted when the link drops.
//
// # Delta synchronization
//
// Summary exchange dominates contact airtime once buffers grow (every
// author ever seen is one dictionary entry), so the manager keeps
// per-peer sync state and sends deltas: after the initial full summary on
// a link, every store change is pushed in-session as an Advertisement
// carrying only the authors whose entry moved since the generation last
// sent to that peer (store.Engine.Changes). The state survives LinkDown —
// a reconnect within the same gathering greets with a delta instead of
// re-sending the whole dictionary — and is dropped on PeerGone, so a peer
// that left radio range (and may return restarted, with a reset
// generation) is re-synced from a full summary. A receiver that cannot
// apply a delta (generation gap) sends SummaryPull and gets a full
// summary; a sender whose bounded change log no longer covers the
// requested base falls back to a full summary on its own.
//
// Full summaries larger than SummaryChunkEntries stream as a sequence of
// bounded Advertisement chunks: the first chunk is sent inline (so it
// always precedes any delta for the same link on the in-order session)
// and the rest from a per-link goroutine, interleaving with Batch frames
// — the receiver plans requests after every chunk instead of waiting for
// the whole dictionary. Continuation chunks apply raise-only, so chunks,
// deltas, and stragglers from a cancelled stream commute safely.
package message

import (
	"bytes"
	"cmp"
	"errors"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
	"time"

	"sos/internal/adhoc"
	"sos/internal/clock"
	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/obs/span"
	"sos/internal/pki"
	"sos/internal/routing"
	"sos/internal/secure"
	"sos/internal/store"
	"sos/internal/wire"
)

// Errors reported by the message manager.
var (
	ErrNotBound = errors.New("message: manager not bound to an ad hoc manager")
)

// MaxBeaconSummary bounds the summary dictionary a discovery beacon
// carries. Beacons ride single UDP datagrams on the real-socket medium,
// so a store with more authors than this advertises a digest — the most
// recently changed authors first — and peers learn the rest through the
// authenticated in-session exchange after connecting.
const MaxBeaconSummary = 1024

// maxPeerSync bounds the per-peer sync-state table. Entries without an
// active link are evicted first; a peer evicted this way is simply
// re-synced from a full summary at the next encounter.
const maxPeerSync = 512

// SummaryChunkEntries is the slice size of a chunked full-summary stream.
// Stores whose dictionary exceeds this many entries send first-contact
// full summaries as a sequence of bounded Advertisement chunks instead of
// one monolithic frame: the first chunk goes out inline (ahead of any
// delta for the same link), the rest stream from a goroutine so Batch
// data frames interleave with them — a fresh peer starts pulling after
// the first chunk, not after the whole dictionary. 4096 18-byte entries
// ≈ 72 KiB per frame.
const SummaryChunkEntries = 4096

// DefaultResyncInterval is the period of the in-session resync
// heartbeat when Config.ResyncInterval is zero. Each tick re-advertises
// on every live link (an empty delta in steady state; the peer answers a
// generation gap with SummaryPull, healing a lost advertisement) and
// re-plans requests, expiring in-flight entries whose Request or Batch
// frame a lossy radio swallowed. Links now survive frame loss, so this
// heartbeat is the only thing that un-wedges a transfer whose frames
// were dropped mid-contact.
const DefaultResyncInterval = 3 * time.Second

// Config assembles a message manager.
type Config struct {
	Store    store.Engine
	Routing  *routing.Manager
	Verifier *pki.Verifier
	Clock    clock.Clock

	// OnReceive fires for every newly stored message (never duplicates).
	OnReceive func(m *msg.Message, from id.UserID)
	// OnPeerUp / OnPeerDown observe authenticated encounters.
	OnPeerUp   func(user id.UserID)
	OnPeerDown func(user id.UserID)

	// AutoConnect, when true (the default via New), connects to any
	// discovered peer whose advertisement offers messages the active
	// scheme wants.
	AutoConnect bool

	// ResyncInterval is the in-session resync heartbeat period: zero
	// uses DefaultResyncInterval, negative disables the heartbeat.
	ResyncInterval time.Duration

	// Tracer, when set, records the contact-session lifecycle into the
	// node's flight recorder: a "contact" envelope per link, spans for
	// every in-session advertisement (full, delta, and each chunk of a
	// streamed summary) carrying entry/byte counts, and peer-discovery
	// instants. Recording is allocation-free, so the tracer can stay
	// enabled under the contact benchmark gates. Nil disables tracing.
	Tracer *span.Tracer

	// PrekeySource, when set, supplies this node's current prekey bundle
	// (internal/secure); the manager publishes it inside each
	// authenticated session at LinkUp so peers can seal forward-secret
	// envelopes to us later without a live handshake.
	PrekeySource func() (*wire.PrekeyBundle, error)
	// OnPrekeyBundle, when set, receives each peer's prekey bundle after
	// the manager has checked it: the bundle's user must match the
	// link's authenticated identity and its signed-prekey signature must
	// verify against the link's certified key. A bundle failing either
	// check is scored as misbehavior instead.
	OnPrekeyBundle func(peer id.UserID, b *secure.PrekeyBundle)
}

// Stats counts message-manager events.
type Stats struct {
	MessagesReceived  uint64
	MessagesServed    uint64
	Duplicates        uint64
	VerifyFailures    uint64
	BatchesSent       uint64
	BatchesReceived   uint64
	RequestsSent      uint64
	RequestsReceived  uint64
	AcksReceived      uint64
	TransfersAborted  uint64
	ConnectsAttempted uint64

	// Sync-plane counters: full vs delta in-session advertisements sent,
	// SummaryPull frames sent (we hit a generation gap) and served (a
	// peer hit one against us).
	AdsFullSent        uint64
	AdsDeltaSent       uint64
	SummaryPullsSent   uint64
	SummaryPullsServed uint64
	// SummaryChunksSent counts the frames of chunked full-summary
	// streams (a single-frame full advertisement counts zero).
	SummaryChunksSent uint64
	// PlanEntriesScanned counts summary entries walked by request
	// planning. Flat per-contact growth of this counter as stores scale
	// is the observable win of incremental (per-delta) planning.
	PlanEntriesScanned uint64
	// SummaryBytesSent and PayloadBytesSent split outbound in-session
	// wire bytes into the sync plane (advertisements, summary pulls) and
	// the data plane (requests, batches, acks), so summary overhead is
	// measurable on its own.
	SummaryBytesSent uint64
	PayloadBytesSent uint64

	// Robustness counters: misbehavior signals scored against peers,
	// quarantine episodes entered, connects/links refused while a peer
	// was quarantined, and backoff-scheduled reconnect attempts after
	// an unexpected link drop.
	MisbehaviorEvents  uint64
	Quarantines        uint64
	QuarantineRefusals uint64
	Reconnects         uint64
	// InflightExpired counts requested-but-never-received messages the
	// resync heartbeat released for re-planning (a lost Request or Batch
	// frame on a lossy radio).
	InflightExpired uint64

	// Prekey-exchange counters: bundles published at LinkUp, verified
	// peer bundles accepted, and bundles rejected (identity mismatch or
	// bad signature — also scored as misbehavior).
	PrekeyBundlesSent     uint64
	PrekeyBundlesReceived uint64
	PrekeyRejects         uint64
}

// peerSync is everything the manager knows about one peer device: the
// active link (nil while disconnected), the outbound sync cursor (the
// generation of our summary the peer has last been sent), and the inbound
// view (the peer's summary as accumulated from full and delta
// advertisements, plus the peer generation it reflects).
type peerSync struct {
	link *adhoc.Link

	sentValid bool
	sentGen   uint64

	recvValid bool
	recvGen   uint64
	summary   map[id.UserID]uint64

	// track is the peer's "contact <peer>" tracer track, interned at
	// LinkUp (0 while tracing is disabled).
	track uint64

	// redial counts consecutive backoff-scheduled reconnect attempts
	// since the last successful LinkUp, bounding the retry ladder.
	redial uint32
}

// Manager is the message manager for one node.
type Manager struct {
	cfg Config

	mu       sync.Mutex
	adhocMgr *adhoc.Manager
	peers    map[mpc.PeerID]*peerSync
	// unacked tracks messages served per peer that have not been
	// acknowledged; on disconnect these count as aborted transfers.
	unacked map[mpc.PeerID]map[msg.Ref]bool
	// inflight tracks messages requested from a peer and not yet
	// received, so concurrent links to several peers holding the same
	// message do not trigger duplicate transfers. Entries carry the
	// request time; the resync heartbeat expires stale ones so a lost
	// Request or Batch frame does not pin its refs forever.
	inflight map[msg.Ref]inflightEntry
	// streams tracks the cancel channel of each link's in-flight chunked
	// summary stream; starting a new stream or losing the link cancels
	// the old one.
	streams map[*adhoc.Link]chan struct{}
	// quar is the per-peer misbehavior scoreboard (see misbehavior.go).
	quar scoreboard
	// refused marks links closed at LinkUp because the peer was
	// quarantined: they were never admitted, so LinkDown must not emit
	// scheme or consumer notifications for them.
	refused map[*adhoc.Link]bool
	stats   Stats
	// order is pushSummaries' scratch list of linked peers.
	order []mpc.PeerID

	// advMu serializes the advertisement plane — beacon refresh plus the
	// per-link summary pushes — so per-peer delta bases advance in the
	// same order the frames are put on each link.
	advMu sync.Mutex
	// adValid/adGen/adScheme/adData remember the last published beacon:
	// Advertise is a no-op while the store's summary generation and the
	// scheme gossip are unchanged, so beacon refreshes cost O(1).
	adValid  bool
	adGen    uint64
	adScheme string
	adData   []byte

	// resyncTimer drives the in-session resync heartbeat; resyncTicks
	// counts completed ticks (the age base for in-flight expiry); closed
	// stops the timer from re-arming. All guarded by mu.
	resyncTimer clock.Timer
	resyncTicks uint64
	closed      bool
	// pad caches the non-recent portion of an oversize store's beacon
	// digest (see beaconSummary). Guarded by advMu.
	padValid bool
	padGen   uint64
	pad      []padEntry
}

// padEntry is one cached beacon-digest entry.
type padEntry struct {
	author id.UserID
	seq    uint64
}

// inflightEntry records which peer a message was requested from and at
// which resync-heartbeat tick, so stale requests become re-plannable
// after a full interval. Age is measured in heartbeat ticks, which run
// on Config.Clock: an entry expires on the second tick after its
// request, however far apart the clock's ticks fire.
type inflightEntry struct {
	peer mpc.PeerID
	tick uint64
}

var _ adhoc.Handler = (*Manager)(nil)

// New builds a message manager. Bind must be called with the ad hoc
// manager before any traffic flows.
func New(cfg Config) (*Manager, error) {
	if cfg.Store == nil || cfg.Routing == nil || cfg.Verifier == nil {
		return nil, errors.New("message: config requires Store, Routing, and Verifier")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.System()
	}
	if cfg.ResyncInterval == 0 {
		cfg.ResyncInterval = DefaultResyncInterval
	}
	return &Manager{
		cfg:      cfg,
		peers:    make(map[mpc.PeerID]*peerSync),
		unacked:  make(map[mpc.PeerID]map[msg.Ref]bool),
		inflight: make(map[msg.Ref]inflightEntry),
		streams:  make(map[*adhoc.Link]chan struct{}),
		refused:  make(map[*adhoc.Link]bool),
	}, nil
}

// Bind attaches the ad hoc manager (two-phase construction: the ad hoc
// manager needs this Manager as its Handler, and this Manager needs the
// ad hoc manager to connect and advertise).
func (m *Manager) Bind(a *adhoc.Manager) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.adhocMgr = a
	if m.cfg.ResyncInterval > 0 && m.resyncTimer == nil && !m.closed {
		m.resyncTimer = m.cfg.Clock.AfterFunc(m.cfg.ResyncInterval, m.resyncTick)
	}
}

// Close stops the resync heartbeat. Pending redial timers fire and
// no-op against the closed ad hoc manager.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	if m.resyncTimer != nil {
		m.resyncTimer.Stop()
		m.resyncTimer = nil
	}
}

// resyncTick is the in-session resync heartbeat. A lossy radio can
// swallow any single frame of the sync conversation — an advertisement,
// a Request, a Batch — and, with links now surviving loss, nothing else
// would ever retry: discovery beacons are unchanged, so no event
// re-fires. Each tick re-advertises on every live link (an empty delta
// in steady state; a peer that missed an earlier advertisement sees a
// generation gap and answers with SummaryPull) and re-plans requests
// after expiring in-flight entries older than one interval.
func (m *Manager) resyncTick() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	// Expire entries stamped before the previous tick: they have sat a
	// full heartbeat interval without the Batch arriving, so the Request
	// or its answer is gone and the refs must become plannable again.
	for ref, e := range m.inflight {
		if e.tick < m.resyncTicks {
			delete(m.inflight, ref)
			m.stats.InflightExpired++
		}
	}
	m.resyncTicks++
	var links []*adhoc.Link
	views := make(map[*peerSync]map[id.UserID]uint64, len(m.peers))
	for _, ps := range m.peers {
		if ps.link == nil {
			continue
		}
		links = append(links, ps.link)
		if len(ps.summary) > 0 {
			views[ps] = ps.summary
		}
	}
	sends := m.planLocked(views)
	m.resyncTimer = m.cfg.Clock.AfterFunc(m.cfg.ResyncInterval, m.resyncTick)
	m.mu.Unlock()
	for _, link := range links {
		m.sendAdTo(link, false)
	}
	m.sendPlans(sends)
}

// Stats returns a snapshot of the counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ActiveLinks returns the users currently linked.
func (m *Manager) ActiveLinks() []id.UserID {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]id.UserID, 0, len(m.peers))
	for _, ps := range m.peers {
		if ps.link != nil {
			out = append(out, ps.link.User())
		}
	}
	return out
}

// SyncState reports the size of the contact-sync plane: how many peers
// have per-peer sync state cached, how many of those are currently
// linked, and the total number of inbound summary entries held across
// all peers — the memory the delta-sync protocol trades for avoiding
// full summary exchanges.
func (m *Manager) SyncState() (peers, links, summaryEntries int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	peers = len(m.peers)
	for _, ps := range m.peers {
		if ps.link != nil {
			links++
		}
		summaryEntries += len(ps.summary)
	}
	return peers, links, summaryEntries
}

// Advertise publishes the current summary and scheme gossip as the
// device's discovery beacon and pushes per-peer delta advertisements on
// every active link. Core calls it at startup and after every change to
// the store. Expired relay cargo is swept first (the store's TTL policy),
// and nothing is sent while the summary generation and the scheme gossip
// are unchanged.
func (m *Manager) Advertise() error {
	m.mu.Lock()
	a := m.adhocMgr
	m.mu.Unlock()
	if a == nil {
		return ErrNotBound
	}
	m.cfg.Store.SweepExpired()
	scheme := m.cfg.Routing.Current()
	name := scheme.Name()
	data := scheme.SchemeData()

	m.advMu.Lock()
	defer m.advMu.Unlock()
	gen := m.cfg.Store.Generation()

	m.mu.Lock()
	genMoved := !m.adValid || m.adGen != gen
	schemeChanged := !m.adValid || m.adScheme != name || !bytes.Equal(m.adData, data)
	m.mu.Unlock()
	if !genMoved && !schemeChanged {
		return nil
	}

	if err := a.Advertise(&wire.Advertisement{
		Peer:       string(a.Self()),
		Gen:        gen,
		Summary:    m.beaconSummary(gen),
		SchemeData: data,
	}); err != nil {
		return err
	}
	m.mu.Lock()
	m.adValid, m.adGen, m.adScheme = true, gen, name
	m.adData = append(m.adData[:0], data...)
	m.mu.Unlock()

	m.pushSummaries(gen, data, schemeChanged)
	return nil
}

// beaconSummary builds the dictionary the beacon carries: the full
// summary when it fits, otherwise a bounded digest — the most recently
// changed authors (from the change log) padded with a cached sample of
// the rest. The digest is a discovery hint; the in-session exchange
// after connecting is authoritative. The pad is rebuilt only every
// MaxBeaconSummary generations, so a beacon refresh never costs
// O(authors): taking a fresh Summary snapshot per refresh would arm the
// store's copy-on-write and re-clone the whole dictionary on every
// subsequent Put. Callers hold advMu (which guards the pad cache).
func (m *Manager) beaconSummary(gen uint64) map[id.UserID]uint64 {
	if m.cfg.Store.SummarySize() <= MaxBeaconSummary {
		return m.cfg.Store.Summary()
	}
	digest := make(map[id.UserID]uint64, MaxBeaconSummary)
	since := uint64(0)
	if gen > MaxBeaconSummary {
		since = gen - MaxBeaconSummary
	}
	if recent, ok := m.cfg.Store.Changes(since); ok {
		for author, seq := range recent {
			if len(digest) >= MaxBeaconSummary {
				break
			}
			digest[author] = seq
		}
	}
	if !m.padValid || gen-m.padGen > MaxBeaconSummary {
		m.pad = m.pad[:0]
		for author, seq := range m.cfg.Store.Summary() {
			if len(m.pad) >= MaxBeaconSummary {
				break
			}
			m.pad = append(m.pad, padEntry{author: author, seq: seq})
		}
		m.padGen, m.padValid = gen, true
	}
	for _, e := range m.pad {
		if len(digest) >= MaxBeaconSummary {
			break
		}
		if _, have := digest[e.author]; !have {
			// Pad seqs may lag a little between rebuilds; as a discovery
			// hint that is harmless.
			digest[e.author] = e.seq
		}
	}
	return digest
}

// pushSummaries sends one in-session advertisement per active link,
// grouped so every distinct frame is encoded exactly once and the bytes
// fan out to all links that need it (links at the same delta base share
// an encoding; each link still seals with its own session). Callers hold
// advMu.
func (m *Manager) pushSummaries(gen uint64, data []byte, schemeChanged bool) {
	m.mu.Lock()
	// Group in sorted peer order, not map order, so a simulated run puts
	// its frames on the air in the same order every time.
	m.order = m.order[:0]
	for peer, ps := range m.peers {
		if ps.link != nil {
			m.order = append(m.order, peer)
		}
	}
	slices.Sort(m.order)
	type adGroup struct {
		base  uint64 // delta base; 0 = full
		links []*adhoc.Link
	}
	var buf [4]adGroup // the usual handful of groups stay off the heap
	groups := buf[:0]
	for _, peer := range m.order {
		ps := m.peers[peer]
		base := ps.sentGen
		switch {
		case !ps.sentValid || ps.sentGen == 0 || ps.sentGen > gen:
			// No usable base: first contact on this link, state reset by
			// PeerGone, or a base from a store this engine no longer is.
			base = 0
		case ps.sentGen == gen && !schemeChanged:
			continue // peer is current
		}
		i := 0
		for i < len(groups) && groups[i].base != base {
			i++
		}
		if i == len(groups) {
			groups = append(groups, adGroup{base: base})
		}
		groups[i].links = append(groups[i].links, ps.link)
		ps.sentValid, ps.sentGen = true, gen
	}
	peerName := string(m.adhocMgr.Self())
	m.mu.Unlock()

	var fullLinks []*adhoc.Link
	for _, g := range groups {
		if g.base == 0 {
			fullLinks = append(fullLinks, g.links...)
			continue
		}
		delta, ok := m.cfg.Store.Changes(g.base)
		if !ok {
			// The change log no longer reaches the peer's base: fall back
			// to a full summary.
			fullLinks = append(fullLinks, g.links...)
			continue
		}
		m.fanOut(&wire.Advertisement{
			Peer: peerName, Gen: gen, BaseGen: g.base, Summary: delta, SchemeData: data,
		}, g.links)
	}
	if len(fullLinks) > 0 {
		if m.cfg.Store.SummarySize() > SummaryChunkEntries {
			// Too big for one frame: stream per link (streams are
			// per-link state, so no shared encoding to fan out).
			for _, link := range fullLinks {
				m.streamFullTo(link, gen, peerName, data)
			}
			return
		}
		m.fanOut(&wire.Advertisement{
			Peer: peerName, Gen: gen, Summary: m.cfg.Store.Summary(), SchemeData: data,
		}, fullLinks)
	}
}

// fanOut encodes one advertisement and sends the shared bytes to every
// link (the slice is only read after encode).
func (m *Manager) fanOut(ad *wire.Advertisement, links []*adhoc.Link) {
	enc, err := wire.Encode(ad)
	if err != nil {
		return // oversized scheme data; nothing sane to send
	}
	name := "advertise.full"
	if ad.IsDelta() {
		name = "advertise.delta"
	}
	for _, link := range links {
		sp := m.cfg.Tracer.Start(m.trackOf(link), name)
		sp.Attr("entries", uint64(len(ad.Summary)))
		sp.Attr("bytes", uint64(len(enc)))
		_ = link.SendEncoded(enc) // link failures surface via LinkDown
		sp.End()
	}
	m.mu.Lock()
	if ad.IsDelta() {
		m.stats.AdsDeltaSent += uint64(len(links))
	} else {
		m.stats.AdsFullSent += uint64(len(links))
	}
	m.stats.SummaryBytesSent += uint64(len(enc)) * uint64(len(links))
	m.mu.Unlock()
}

// sendCounted encodes one frame through a pooled buffer, sends it on the
// link, and bills the wire bytes to the summary plane (advertisements,
// summary pulls) or the payload plane (requests, batches, acks).
func (m *Manager) sendCounted(link *adhoc.Link, f wire.Frame, payload bool) error {
	buf := wire.GetBuffer()
	defer buf.Free()
	enc, err := wire.AppendEncode(buf.B[:0], f)
	if err != nil {
		return err
	}
	buf.B = enc
	if err := link.SendEncoded(enc); err != nil {
		return err
	}
	m.mu.Lock()
	if payload {
		m.stats.PayloadBytesSent += uint64(len(enc))
	} else {
		m.stats.SummaryBytesSent += uint64(len(enc))
	}
	m.mu.Unlock()
	return nil
}

// PeerDiscovered implements adhoc.Handler. A beacon from an unlinked peer
// triggers a connection when the scheme wants something it offers. For
// linked peers the beacon is ignored: the authenticated in-session delta
// plane already pushes every summary change.
func (m *Manager) PeerDiscovered(peer mpc.PeerID, ad *wire.Advertisement) {
	if ad.IsDelta() {
		return // beacons are full by contract; ignore anything else
	}
	m.mu.Lock()
	if m.quar.quarantined(peer, m.cfg.Clock.Now()) {
		m.stats.QuarantineRefusals++
		m.mu.Unlock()
		return
	}
	ps := m.peers[peer]
	linked := ps != nil && ps.link != nil
	a := m.adhocMgr
	m.mu.Unlock()
	if linked {
		return
	}
	scheme := m.cfg.Routing.Current()
	if len(scheme.Wants(ad.Summary)) == 0 {
		return
	}
	if !m.cfg.AutoConnect || a == nil {
		return
	}
	m.mu.Lock()
	m.stats.ConnectsAttempted++
	if m.peers[peer] == nil {
		// Seed the sync slot now so the redial ladder below has a home
		// even if the handshake never completes.
		m.evictSyncLocked()
		m.peers[peer] = &peerSync{}
	}
	m.mu.Unlock()
	m.cfg.Tracer.Event(m.contactTrack(peer), "peer.discovered")
	// ErrLinkExists races are benign: the handshake in flight will serve.
	_ = a.Connect(peer)
	// Connect watchdog: on a lossy radio any handshake frame can vanish
	// and the attempt times out without a LinkDown. The ladder re-checks
	// and retries until LinkUp resets it.
	m.scheduleRedial(peer, nil)
}

// PeerGone implements adhoc.Handler: the peer left radio range or
// withdrew its beacon. Its per-peer sync state is cleared so a returning
// peer — possibly restarted, with a reset store generation — is re-synced
// from a full summary instead of a stale delta base.
func (m *Manager) PeerGone(peer mpc.PeerID) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ps := m.peers[peer]
	if ps == nil {
		return
	}
	if ps.link == nil {
		delete(m.peers, peer)
		return
	}
	// The session outlives the beacon (TCP can persist past beacon loss);
	// reset the cursors in place so the next push is a full summary.
	ps.sentValid, ps.sentGen = false, 0
	ps.recvValid, ps.recvGen = false, 0
	ps.summary = nil
}

// contactTrack interns the "contact <peer>" tracer track — the same
// label the adhoc layer uses for its handshake span, so the whole
// contact session renders as one timeline.
func (m *Manager) contactTrack(peer mpc.PeerID) uint64 {
	if m.cfg.Tracer == nil {
		return 0 // skip the label concatenation, not just the record
	}
	return m.cfg.Tracer.Track("contact " + string(peer))
}

// trackOf returns the interned contact track of a link's peer (0 when
// the peer raced away or tracing is off).
func (m *Manager) trackOf(link *adhoc.Link) uint64 {
	if m.cfg.Tracer == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if ps := m.peers[link.Peer()]; ps != nil {
		return ps.track
	}
	return 0
}

// LinkUp implements adhoc.Handler: greet the authenticated peer with our
// summary and scheme gossip — a delta against the last generation synced
// to this peer when that state survived (churn reconnect), else the full
// summary.
func (m *Manager) LinkUp(link *adhoc.Link) {
	track := m.contactTrack(link.Peer())
	m.mu.Lock()
	if m.quar.quarantined(link.Peer(), m.cfg.Clock.Now()) {
		// The peer dialed us (or a connect raced the quarantine): refuse
		// the session before the scheme or consumer ever sees it.
		m.stats.QuarantineRefusals++
		m.refused[link] = true
		m.mu.Unlock()
		_ = link.Close()
		return
	}
	ps := m.peers[link.Peer()]
	if ps == nil {
		m.evictSyncLocked()
		ps = &peerSync{}
		m.peers[link.Peer()] = ps
	}
	ps.link = link
	ps.track = track
	ps.redial = 0
	m.mu.Unlock()
	// The contact envelope: every sync span until LinkDown nests inside.
	m.cfg.Tracer.Begin(track, "contact")

	scheme := m.cfg.Routing.Current()
	scheme.OnPeerConnected(link.User())
	if m.cfg.OnPeerUp != nil {
		m.cfg.OnPeerUp(link.User())
	}

	m.sendAdTo(link, false)
	m.sendPrekeyTo(link)
}

// sendPrekeyTo publishes the node's current prekey bundle on one link.
func (m *Manager) sendPrekeyTo(link *adhoc.Link) {
	if m.cfg.PrekeySource == nil {
		return
	}
	bundle, err := m.cfg.PrekeySource()
	if err != nil || bundle == nil {
		return // a node that cannot mint prekeys still syncs messages
	}
	if err := m.sendCounted(link, bundle, false); err != nil {
		return // link failures surface via LinkDown
	}
	m.mu.Lock()
	m.stats.PrekeyBundlesSent++
	m.mu.Unlock()
}

// onPrekeyBundle vets a peer's published bundle against the link's
// authenticated identity before handing it to the consumer: the bundle
// must be the peer's own, and its signed prekey must carry a valid
// signature from the certified key the handshake verified. Anything else
// is authenticated garbage and scores like it.
func (m *Manager) onPrekeyBundle(link *adhoc.Link, fr *wire.PrekeyBundle) {
	b := &secure.PrekeyBundle{
		User:       fr.User,
		SignedID:   fr.SignedID,
		SignedPub:  fr.SignedPub,
		SignedSig:  fr.SignedSig,
		OneTimeID:  fr.OneTimeID,
		OneTimePub: fr.OneTimePub,
	}
	if fr.User != link.User() || !b.Verify(link.Cert().Key) {
		m.mu.Lock()
		m.stats.PrekeyRejects++
		m.penalizeLocked(link.Peer(), pointsGarbage, m.cfg.Clock.Now())
		m.mu.Unlock()
		return
	}
	m.mu.Lock()
	m.stats.PrekeyBundlesReceived++
	m.mu.Unlock()
	if m.cfg.OnPrekeyBundle != nil {
		m.cfg.OnPrekeyBundle(link.User(), b)
	}
}

// sendAdTo sends one in-session advertisement on a single link: a delta
// from the peer's last-synced generation when allowed and possible, else
// the full summary.
func (m *Manager) sendAdTo(link *adhoc.Link, forceFull bool) {
	scheme := m.cfg.Routing.Current()
	data := scheme.SchemeData()

	m.advMu.Lock()
	defer m.advMu.Unlock()
	gen := m.cfg.Store.Generation()

	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		m.mu.Unlock()
		return // link raced away
	}
	base := uint64(0)
	if !forceFull && ps.sentValid && ps.sentGen > 0 && ps.sentGen <= gen {
		base = ps.sentGen
	}
	ps.sentValid, ps.sentGen = true, gen
	track := ps.track
	peerName := string(m.adhocMgr.Self())
	m.mu.Unlock()

	ad := &wire.Advertisement{Peer: peerName, Gen: gen, SchemeData: data}
	if base != 0 {
		if delta, ok := m.cfg.Store.Changes(base); ok {
			ad.BaseGen, ad.Summary = base, delta
		} else {
			base = 0
		}
	}
	if base == 0 {
		if m.cfg.Store.SummarySize() > SummaryChunkEntries {
			m.streamFullTo(link, gen, peerName, data)
			return
		}
		ad.Summary = m.cfg.Store.Summary()
	}
	name := "advertise.full"
	if ad.IsDelta() {
		name = "advertise.delta"
	}
	sp := m.cfg.Tracer.Start(track, name)
	sp.Attr("entries", uint64(len(ad.Summary)))
	sp.Attr("gen", gen)
	if err := m.sendCounted(link, ad, false); err != nil {
		sp.End()
		return // link failures surface via LinkDown
	}
	sp.End()
	m.mu.Lock()
	if ad.IsDelta() {
		m.stats.AdsDeltaSent++
	} else {
		m.stats.AdsFullSent++
	}
	m.mu.Unlock()
}

// summaryChunker drains the store's summary stripes into fixed-size
// chunks. Each call to next copies at most SummaryChunkEntries entries;
// the carry buffer stays bounded by one chunk plus one stripe, so a
// million-author stream never materializes the dictionary in one
// allocation. Stripe snapshots are shared copy-on-write maps, safe to
// iterate while the store keeps taking Puts.
type summaryChunker struct {
	store  store.Engine
	stripe int
	buf    []padEntry
}

// next returns the next chunk and whether more chunks follow. After the
// fill loop either the buffer holds a full chunk or every stripe has been
// drained, so the final chunk is exactly the remainder.
func (c *summaryChunker) next() (map[id.UserID]uint64, bool) {
	for len(c.buf) < SummaryChunkEntries && c.stripe < c.store.SummaryStripes() {
		for author, seq := range c.store.SummaryStripe(c.stripe) {
			c.buf = append(c.buf, padEntry{author: author, seq: seq})
		}
		c.stripe++
	}
	n := min(len(c.buf), SummaryChunkEntries)
	out := make(map[id.UserID]uint64, n)
	for _, e := range c.buf[:n] {
		out[e.author] = e.seq
	}
	c.buf = c.buf[:copy(c.buf, c.buf[n:])]
	return out, len(c.buf) > 0 || c.stripe < c.store.SummaryStripes()
}

// streamFullTo sends a full summary to one link as a chunked stream. The
// first chunk (with the scheme gossip) goes out inline — callers hold
// advMu, so no delta for this link can jump ahead of it on the in-order
// session — and the continuation chunks stream from a goroutine, so the
// adhoc callback plane never blocks on a multi-megabyte dictionary and
// Batch frames answering the peer's early requests interleave with the
// remaining chunks. Starting a stream cancels any previous stream on the
// same link; the receiver applies continuation chunks raise-only, so a
// straggler frame from a cancelled stream can never lower an entry.
func (m *Manager) streamFullTo(link *adhoc.Link, gen uint64, peerName string, data []byte) {
	track := m.trackOf(link)
	ch := &summaryChunker{store: m.cfg.Store}
	first, more := ch.next()
	ad := &wire.Advertisement{Peer: peerName, Gen: gen, More: more, Summary: first, SchemeData: data}
	sp := m.cfg.Tracer.Start(track, "advertise.full")
	sp.Attr("chunk", 0)
	sp.Attr("entries", uint64(len(first)))
	sp.Attr("more", boolAttr(more))
	if err := m.sendCounted(link, ad, false); err != nil {
		sp.End()
		return // link failures surface via LinkDown
	}
	sp.End()
	m.mu.Lock()
	m.stats.AdsFullSent++
	m.stats.SummaryChunksSent++
	var cancel chan struct{}
	if more {
		cancel = make(chan struct{})
		if old := m.streams[link]; old != nil {
			close(old)
		}
		m.streams[link] = cancel
	}
	m.mu.Unlock()
	if more {
		go m.streamChunks(link, track, gen, peerName, ch, cancel)
	}
}

// boolAttr renders a bool as a span attribute value.
func boolAttr(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// streamChunks emits a stream's continuation chunks outside the
// advertisement lock, stopping on cancellation or link failure.
func (m *Manager) streamChunks(link *adhoc.Link, track uint64, gen uint64, peerName string, ch *summaryChunker, cancel chan struct{}) {
	defer func() {
		m.mu.Lock()
		if m.streams[link] == cancel {
			delete(m.streams, link)
		}
		m.mu.Unlock()
	}()
	for chunk := uint32(1); ; chunk++ {
		select {
		case <-cancel:
			return
		default:
		}
		entries, more := ch.next()
		ad := &wire.Advertisement{Peer: peerName, Gen: gen, Chunk: chunk, More: more, Summary: entries}
		sp := m.cfg.Tracer.Start(track, "sync.chunk")
		sp.Attr("chunk", uint64(chunk))
		sp.Attr("entries", uint64(len(entries)))
		if err := m.sendCounted(link, ad, false); err != nil {
			sp.End()
			return
		}
		sp.End()
		m.mu.Lock()
		m.stats.SummaryChunksSent++
		m.mu.Unlock()
		if !more {
			return
		}
	}
}

// evictSyncLocked keeps the sync-state table bounded by dropping entries
// without an active link. Callers hold m.mu.
func (m *Manager) evictSyncLocked() {
	if len(m.peers) < maxPeerSync {
		return
	}
	for peer, ps := range m.peers {
		if ps.link == nil {
			delete(m.peers, peer)
			if len(m.peers) < maxPeerSync {
				return
			}
		}
	}
}

// FrameIn implements adhoc.Handler: the in-session protocol.
func (m *Manager) FrameIn(link *adhoc.Link, f wire.Frame) {
	switch fr := f.(type) {
	case *wire.Advertisement:
		m.onSummary(link, fr)
	case *wire.SummaryPull:
		m.onSummaryPull(link)
	case *wire.Request:
		m.onRequest(link, fr)
	case *wire.Batch:
		m.onBatch(link, fr)
	case *wire.Ack:
		m.onAck(link, fr)
	case *wire.PrekeyBundle:
		m.onPrekeyBundle(link, fr)
	default:
		// Unknown in-session frame: ignore (forward compatibility).
	}
}

// LinkDown implements adhoc.Handler: tell the scheme, count unfinished
// transfers, and drop per-link state. The store still holds everything,
// so an aborted transfer is simply retried at the next encounter — this
// is the "message manager knows what messages were not transferred"
// behaviour from paper §III-C. The sync cursors survive: if the peer
// relinks before PeerGone fires, the greeting is a delta, not a full
// re-summary.
func (m *Manager) LinkDown(link *adhoc.Link, reason error) {
	m.mu.Lock()
	if m.refused[link] {
		// Refused at LinkUp: the scheme and consumer never saw this
		// session, so there is nothing to notify or unwind.
		delete(m.refused, link)
		m.mu.Unlock()
		return
	}
	if errors.Is(reason, adhoc.ErrPeerMisbehaved) {
		// Authenticated garbage ended this session: the strongest
		// misbehavior signal there is.
		m.penalizeLocked(link.Peer(), pointsGarbage, m.cfg.Clock.Now())
	}
	if ps := m.peers[link.Peer()]; ps != nil && ps.link == link {
		ps.link = nil
		m.cfg.Tracer.EndSlice(ps.track, "contact")
	}
	if cancel := m.streams[link]; cancel != nil {
		// Stop a chunked summary stream still in flight on this link.
		close(cancel)
		delete(m.streams, link)
	}
	if pending := m.unacked[link.Peer()]; len(pending) > 0 {
		m.stats.TransfersAborted += uint64(len(pending))
	}
	delete(m.unacked, link.Peer())
	// Requests that died with this link become eligible again.
	orphaned := false
	for ref, e := range m.inflight {
		if e.peer == link.Peer() {
			delete(m.inflight, ref)
			orphaned = true
		}
	}
	m.mu.Unlock()

	m.cfg.Routing.Current().OnPeerLost(link.User())
	if m.cfg.OnPeerDown != nil {
		m.cfg.OnPeerDown(link.User())
	}
	if orphaned {
		// Re-plan against the remaining links' summaries so an aborted
		// transfer resumes within the same gathering.
		m.pull()
	}
	m.scheduleRedial(link.Peer(), reason)
}

// redial ladder: capped jittered-exponential reconnect after a link
// drops mid-contact. Radio chaos (a lost frame desynchronizes the AEAD
// sequence) kills sessions while both peers are still in range and
// still beaconing unchanged payloads — which means discovery alone
// never re-fires and the contact would silently wedge. The ladder
// restores it within a few hundred milliseconds.
const (
	redialBase        = 200 * time.Millisecond
	redialCap         = 5 * time.Second
	redialMaxAttempts = 6
)

// scheduleRedial arranges a reconnect attempt unless the drop was
// deliberate (session Bye, manager close, peer out of range, protocol
// abuse) or the ladder is exhausted.
func (m *Manager) scheduleRedial(peer mpc.PeerID, reason error) {
	if !m.cfg.AutoConnect ||
		errors.Is(reason, adhoc.ErrClosed) || errors.Is(reason, mpc.ErrClosed) ||
		errors.Is(reason, mpc.ErrPeerGone) || errors.Is(reason, mpc.ErrPeerUnknown) ||
		errors.Is(reason, adhoc.ErrPeerMisbehaved) {
		return
	}
	m.mu.Lock()
	ps := m.peers[peer]
	if ps == nil || ps.link != nil || m.adhocMgr == nil ||
		ps.redial >= redialMaxAttempts || m.quar.quarantined(peer, m.cfg.Clock.Now()) {
		m.mu.Unlock()
		return
	}
	attempt := ps.redial
	ps.redial++
	self := m.adhocMgr.Self()
	m.mu.Unlock()
	delay := redialBase << attempt
	if delay > redialCap {
		delay = redialCap
	}
	// Full jitter on the top half so two peers redialing each other
	// don't stay phase-locked: a hash of (self, peer, attempt), which
	// differs at the two ends and replays in a seeded simulation.
	h := fnv.New64a()
	h.Write([]byte(self))
	h.Write([]byte{0, byte(attempt)})
	h.Write([]byte(peer))
	delay = delay/2 + time.Duration(h.Sum64()%uint64(delay/2+1))
	m.cfg.Clock.AfterFunc(delay, func() { m.redial(peer) })
}

// redial performs one scheduled reconnect attempt.
func (m *Manager) redial(peer mpc.PeerID) {
	m.mu.Lock()
	ps := m.peers[peer]
	a := m.adhocMgr
	ok := ps != nil && ps.link == nil && a != nil && !m.quar.quarantined(peer, m.cfg.Clock.Now())
	if ok {
		m.stats.Reconnects++
		m.stats.ConnectsAttempted++
	}
	m.mu.Unlock()
	if !ok {
		return
	}
	err := a.Connect(peer)
	if err != nil && errors.Is(err, adhoc.ErrLinkExists) {
		// A handshake is in flight — but on a chaotic radio it may
		// still wedge and expire, so keep the ladder armed.
		err = nil
	}
	// Climb the ladder regardless: a started handshake can still fail
	// without a LinkDown, and LinkUp resets the ladder on success.
	m.scheduleRedial(peer, err)
}

// penalizeLocked scores misbehavior points against a peer and reports
// whether the peer just tripped into quarantine. Callers hold m.mu; on
// a trip they should drop the peer's link after unlocking.
func (m *Manager) penalizeLocked(peer mpc.PeerID, pts float64, now time.Time) bool {
	m.stats.MisbehaviorEvents++
	tripped, until := m.quar.observe(peer, pts, now)
	if tripped {
		m.stats.Quarantines++
		if m.cfg.AutoConnect {
			// The redial ladder skips misbehaviour drops and unchanged
			// beacons never re-fire discovery, so without this the
			// pair would never link again: try once at the term's end.
			m.cfg.Clock.AfterFunc(until.Sub(now), func() { m.redial(peer) })
		}
	}
	return tripped
}

// onSummary handles the peer's authenticated in-session advertisement,
// full or delta. A delta whose base does not match the cached view is a
// generation gap: the cached view is discarded and a SummaryPull asks the
// peer for a full summary.
func (m *Manager) onSummary(link *adhoc.Link, ad *wire.Advertisement) {
	scheme := m.cfg.Routing.Current()
	if len(ad.SchemeData) > 0 {
		scheme.OnPeerData(link.User(), ad.SchemeData)
	}
	now := m.cfg.Clock.Now()
	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		m.mu.Unlock()
		return
	}
	// The flood bucket is charged only for frames that trigger
	// dictionary-scale work: full summaries (an O(dictionary) view
	// replacement and re-plan) and gap deltas (a SummaryPull round trip
	// serving the whole dictionary). A delta that chains cleanly onto
	// the cached view costs O(changed entries) — the same class as the
	// Batch frames it steers — and a fast honest contact legitimately
	// produces them faster than any sane refill rate; dropping one
	// silently desynchronizes the delta chain and forces exactly the
	// full-summary recovery the guard exists to prevent.
	chained := ad.IsDelta() && ad.Chunk == 0 && ps.recvValid && ad.BaseGen == ps.recvGen
	if ad.Chunk == 0 && !chained && !m.quar.allowAd(link.Peer(), now) {
		// Advertisement flood: the peer's token bucket ran dry. Score
		// it and drop the frame; a tripped quarantine drops the link.
		tripped := m.penalizeLocked(link.Peer(), pointsFlood, now)
		m.mu.Unlock()
		if tripped {
			_ = link.Close()
		}
		return
	}
	switch {
	case !ad.IsDelta() && ad.Chunk == 0:
		// Full summary — a single-frame advertisement or the first chunk
		// of a stream: replace the cached view and start planning
		// immediately, without waiting for the rest of the stream.
		// Decode allocated the map fresh, so taking ownership is safe.
		ps.summary = ad.Summary
		ps.recvGen, ps.recvValid = ad.Gen, true
		m.mu.Unlock()
		m.pullView(link, ad.Summary)
	case !ad.IsDelta():
		// Continuation chunk. Apply raise-only: a delta pushed between
		// chunks may already have lifted an author past the stream's
		// snapshot, and a straggler from a cancelled stream must never
		// lower the view.
		if ps.summary == nil {
			ps.summary = make(map[id.UserID]uint64, len(ad.Summary))
		}
		for author, seq := range ad.Summary {
			if seq > ps.summary[author] {
				ps.summary[author] = seq
			}
		}
		m.mu.Unlock()
		m.pullView(link, ad.Summary)
	case ps.recvValid && ad.BaseGen == ps.recvGen:
		if ps.summary == nil {
			ps.summary = make(map[id.UserID]uint64, len(ad.Summary))
		}
		// Entries only ever raise (per-author sequence numbers are
		// monotone), so applying is plain assignment.
		for author, seq := range ad.Summary {
			ps.summary[author] = seq
		}
		ps.recvGen = ad.Gen
		m.mu.Unlock()
		// Plan only over the entries that just changed: request planning
		// on the delta hot path costs O(changed authors), not O(summary).
		m.pullView(link, ad.Summary)
	default:
		// Generation gap (e.g. we restarted while the peer kept its sync
		// state for us): our view is unusable, ask for a full summary.
		// One gap is an honest accident; a stream of them is the
		// stale-delta attack, so each one scores.
		ps.recvValid = false
		ps.summary = nil
		if m.penalizeLocked(link.Peer(), pointsStaleDelta, now) {
			m.mu.Unlock()
			_ = link.Close()
			return
		}
		m.stats.SummaryPullsSent++
		m.mu.Unlock()
		_ = m.sendCounted(link, &wire.SummaryPull{}, false)
	}
}

// onSummaryPull re-sends a full summary to a peer that could not apply
// one of our deltas.
func (m *Manager) onSummaryPull(link *adhoc.Link) {
	m.mu.Lock()
	m.stats.SummaryPullsServed++
	m.mu.Unlock()
	m.sendAdTo(link, true)
}

// outgoingPlan is one link's planned request batch.
type outgoingPlan struct {
	link  *adhoc.Link
	wants []wire.Want
}

// pull re-plans requests across all active links from their cached
// summaries. It runs when link state changes could invalidate earlier
// plans (full summary replace, aborted transfers on LinkDown); the
// per-change hot path is pullView.
func (m *Manager) pull() {
	m.mu.Lock()
	views := make(map[*peerSync]map[id.UserID]uint64, len(m.peers))
	for _, ps := range m.peers {
		if ps.link != nil && len(ps.summary) > 0 {
			views[ps] = ps.summary
		}
	}
	sends := m.planLocked(views)
	m.mu.Unlock()
	m.sendPlans(sends)
}

// pullView plans requests against a single peer's just-applied delta
// entries, so steady-state planning costs O(changed authors) instead of
// O(total summary).
func (m *Manager) pullView(link *adhoc.Link, view map[id.UserID]uint64) {
	if len(view) == 0 {
		return
	}
	m.mu.Lock()
	ps := m.peers[link.Peer()]
	if ps == nil || ps.link != link {
		m.mu.Unlock()
		return
	}
	sends := m.planLocked(map[*peerSync]map[id.UserID]uint64{ps: view})
	m.mu.Unlock()
	m.sendPlans(sends)
}

// planLocked builds request plans: for every message the active scheme
// wants from a viewed summary, pick one link to pull it from — preferring
// the verified author (the freshest source) when the author is linked —
// and never request a message already in flight on another link. This
// keeps gatherings of many mutually-connected peers from transferring the
// same message k times. Callers hold m.mu.
func (m *Manager) planLocked(views map[*peerSync]map[id.UserID]uint64) []outgoingPlan {
	scheme := m.cfg.Routing.Current()

	// Deterministic order: sort viewed peers by peer id.
	peers := make([]mpc.PeerID, 0, len(views))
	byUser := make(map[id.UserID]*peerSync, len(m.peers))
	for peer, ps := range m.peers {
		if ps.link == nil {
			continue
		}
		byUser[ps.link.User()] = ps
		if _, viewed := views[ps]; viewed {
			peers = append(peers, peer)
		}
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })

	type planned struct {
		wants map[id.UserID][]uint64
	}
	plans := make(map[*peerSync]*planned, len(views))
	assign := func(ps *peerSync, author id.UserID, seq uint64) {
		p := plans[ps]
		if p == nil {
			p = &planned{wants: make(map[id.UserID][]uint64)}
			plans[ps] = p
		}
		p.wants[author] = append(p.wants[author], seq)
		m.inflight[msg.Ref{Author: author, Seq: seq}] = inflightEntry{peer: ps.link.Peer(), tick: m.resyncTicks}
	}
	for _, peer := range peers {
		ps := m.peers[peer]
		m.stats.PlanEntriesScanned += uint64(len(views[ps]))
		for _, want := range scheme.Wants(views[ps]) {
			for _, seq := range want.Seqs {
				ref := msg.Ref{Author: want.Author, Seq: seq}
				if _, pending := m.inflight[ref]; pending {
					continue
				}
				// Source preference: pull an author's own messages from
				// the author when they are linked and hold them.
				target := ps
				if src, linked := byUser[want.Author]; linked && src.summary[want.Author] >= seq {
					target = src
				}
				assign(target, want.Author, seq)
			}
		}
	}
	// Snapshot the plans for sending outside the lock.
	var sends []outgoingPlan
	for ps, p := range plans {
		authors := make([]id.UserID, 0, len(p.wants))
		for author := range p.wants {
			authors = append(authors, author)
		}
		sort.Slice(authors, func(i, j int) bool { return authors[i].String() < authors[j].String() })
		wants := make([]wire.Want, 0, len(authors))
		for _, author := range authors {
			wants = append(wants, wire.Want{Author: author, Seqs: p.wants[author]})
		}
		sends = append(sends, outgoingPlan{link: ps.link, wants: wants})
	}
	// Send in peer order, not map order, so a simulated run replays.
	slices.SortFunc(sends, func(a, b outgoingPlan) int { return cmp.Compare(a.link.Peer(), b.link.Peer()) })
	return sends
}

// sendPlans dispatches planned requests.
func (m *Manager) sendPlans(sends []outgoingPlan) {
	for _, s := range sends {
		m.sendRequest(s.link, s.wants)
	}
}

// onRequest serves the peer's pull request, scheme-filtered and chunked.
// Expired cargo is swept first, so a TTL-bounded forwarder never serves a
// foreign message past its lifetime — the serve-time guarantee the old
// relay-TTL filter gave, now enforced by actual eviction.
func (m *Manager) onRequest(link *adhoc.Link, req *wire.Request) {
	m.mu.Lock()
	m.stats.RequestsReceived++
	m.mu.Unlock()

	total := 0
	for _, w := range req.Wants {
		total += len(w.Seqs)
	}
	if total > oversizedWantSeqs {
		// No honest sync wants this many sequences in one frame; score
		// it and refuse to serve (serving would burn store reads and
		// airtime on the attacker's behalf).
		m.mu.Lock()
		tripped := m.penalizeLocked(link.Peer(), pointsOversized, m.cfg.Clock.Now())
		m.mu.Unlock()
		if tripped {
			_ = link.Close()
		}
		return
	}

	m.cfg.Store.SweepExpired()
	scheme := m.cfg.Routing.Current()
	serve := scheme.FilterServe(link.User(), req.Wants)
	var outgoing []*msg.Message
	for _, w := range serve {
		for _, mm := range m.cfg.Store.Select(w.Author, w.Seqs) {
			scheme.PrepareOutgoing(link.User(), mm)
			outgoing = append(outgoing, mm)
		}
	}
	if len(outgoing) == 0 {
		return
	}

	for start := 0; start < len(outgoing); start += wire.MaxBatchMessages {
		end := min(start+wire.MaxBatchMessages, len(outgoing))
		batch := &wire.Batch{Msgs: outgoing[start:end]}
		if err := m.sendCounted(link, batch, true); err != nil {
			return // link died; LinkDown will account for it
		}
		m.mu.Lock()
		m.stats.BatchesSent++
		m.stats.MessagesServed += uint64(end - start)
		pending := m.unacked[link.Peer()]
		if pending == nil {
			pending = make(map[msg.Ref]bool)
			m.unacked[link.Peer()] = pending
		}
		for _, mm := range outgoing[start:end] {
			pending[mm.Ref()] = true
		}
		m.mu.Unlock()
	}
}

// onBatch verifies, stores, and acknowledges delivered messages.
func (m *Manager) onBatch(link *adhoc.Link, batch *wire.Batch) {
	m.mu.Lock()
	m.stats.BatchesReceived++
	m.mu.Unlock()

	scheme := m.cfg.Routing.Current()
	var accepted []msg.Ref
	newMessages := false
	for _, mm := range batch.Msgs {
		m.mu.Lock()
		delete(m.inflight, mm.Ref())
		m.mu.Unlock()
		if err := m.verify(mm); err != nil {
			m.mu.Lock()
			m.stats.VerifyFailures++
			m.mu.Unlock()
			continue
		}
		// Clone: batch messages alias the link's decode scratch (see
		// adhoc.Handler) and the stored copy must own its memory.
		incoming := mm.Clone()
		incoming.Hops++ // one more device-to-device transfer
		added, err := m.cfg.Store.Put(incoming)
		if err != nil {
			continue
		}
		accepted = append(accepted, incoming.Ref())
		if !added {
			m.mu.Lock()
			m.stats.Duplicates++
			m.mu.Unlock()
			continue
		}
		newMessages = true
		m.mu.Lock()
		m.stats.MessagesReceived++
		m.mu.Unlock()
		scheme.OnReceived(incoming, link.User())
		if m.cfg.OnReceive != nil {
			m.cfg.OnReceive(incoming.Clone(), link.User())
		}
	}
	if len(accepted) > 0 {
		for start := 0; start < len(accepted); start += wire.MaxBatchMessages {
			end := min(start+wire.MaxBatchMessages, len(accepted))
			_ = m.sendCounted(link, &wire.Ack{Refs: accepted[start:end]}, true)
		}
	}
	if newMessages {
		// The summary changed; refresh the beacon and push deltas so both
		// browsing and linked peers see the new high-water marks (this is
		// how multi-hop forwarding propagates within a gathering).
		_ = m.Advertise()
	}
}

// onAck clears acknowledged transfers.
func (m *Manager) onAck(link *adhoc.Link, ack *wire.Ack) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats.AcksReceived++
	pending := m.unacked[link.Peer()]
	for _, ref := range ack.Refs {
		delete(pending, ref)
	}
}

// sendRequest sends a pull request in frames the serving peer accepts:
// at most wire.MaxWants wants and oversizedWantSeqs seqs per frame, a
// want longer than the remaining budget split across frames. A larger
// frame would be scored as misbehaviour and refused, so an honest backlog
// beyond oversizedWantSeqs would never sync.
func (m *Manager) sendRequest(link *adhoc.Link, wants []wire.Want) {
	var frame []wire.Want
	seqs := 0
	send := func() bool {
		if err := m.sendCounted(link, &wire.Request{Wants: frame}, true); err != nil {
			return false
		}
		m.mu.Lock()
		m.stats.RequestsSent++
		m.mu.Unlock()
		frame, seqs = nil, 0
		return true
	}
	for _, w := range wants {
		for rest := w.Seqs; len(rest) > 0; {
			if len(frame) == wire.MaxWants || seqs == oversizedWantSeqs {
				if !send() {
					return
				}
			}
			n := min(len(rest), oversizedWantSeqs-seqs)
			frame = append(frame, wire.Want{Author: w.Author, Seqs: rest[:n]})
			seqs += n
			rest = rest[n:]
		}
	}
	if len(frame) > 0 {
		send()
	}
}

// verify enforces the paper's security checks on a relayed message: the
// attached certificate must chain to the pinned CA root and name the
// author, and the author's signature must cover the payload.
func (m *Manager) verify(mm *msg.Message) error {
	if err := mm.Validate(); err != nil {
		return err
	}
	cert, err := m.cfg.Verifier.VerifyFor(mm.CertDER, mm.Author)
	if err != nil {
		return err
	}
	return mm.VerifyWithKey(cert.Key)
}
