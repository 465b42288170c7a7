package chaos

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/clock"
	"sos/internal/mpc"
)

// errNoReachability rejects partition profiles over media that cannot
// sever pairs.
var errNoReachability = errors.New("chaos: partition schedule needs an inner medium with SetReachable")

// Reachability is the partition hook: a medium that can sever and
// restore pairs. MemMedium and NetMedium both implement it.
type Reachability interface {
	SetReachable(a, b mpc.PeerID, up bool)
}

// reorderFlush bounds how long a frame held for reordering waits for a
// successor to overtake it before being released anyway.
const reorderFlush = 50 * time.Millisecond

// Stats is a snapshot of the wrapper's injection counters.
type Stats struct {
	FramesPassed      uint64 // frames forwarded to the inner medium
	FramesDropped     uint64 // frames discarded by the loss dice
	FramesDuplicated  uint64 // extra copies injected
	FramesReordered   uint64 // frames overtaken by a successor
	FramesDelayed     uint64 // frames routed through the latency queue
	OneWayDrops       uint64 // frames discarded on asymmetric links
	PartitionsStarted uint64
	PartitionsHealed  uint64
}

// Medium wraps an inner mpc.Medium and injects the profile's faults on
// the send side of every connection. It implements mpc.Medium and — so
// lab churn keeps working through the wrapper — Reachability, composing
// caller-driven severs with its own scheduled partitions.
type Medium struct {
	inner   mpc.Medium
	clk     clock.Clock  // times partitions, reorder flushes and latency
	reach   Reachability // nil when the inner medium has no sever hook
	prof    Profile
	neutral bool

	mu        sync.Mutex
	group     map[mpc.PeerID]int           // partition half per joined peer
	churnDown map[mpc.PairKey]bool         // pairs severed by the caller
	pairN     map[[2]uint64]*atomic.Uint64 // dice index per directed pair
	splits    int                          // active partition windows
	timers    []clock.Timer
	closed    bool

	framesPassed      atomic.Uint64
	framesDropped     atomic.Uint64
	framesDuplicated  atomic.Uint64
	framesReordered   atomic.Uint64
	framesDelayed     atomic.Uint64
	oneWayDrops       atomic.Uint64
	partitionsStarted atomic.Uint64
	partitionsHealed  atomic.Uint64
}

var (
	_ mpc.Medium   = (*Medium)(nil)
	_ Reachability = (*Medium)(nil)
)

// Wrap layers the profile over an inner medium. Partition windows,
// reorder flushes and latency all run on clk, which must be the clock
// that drives the inner medium (clock.System for live media, the
// simulation's clock.Virtual for SimMedium). Profiles that schedule
// partitions require the inner medium to implement Reachability.
func Wrap(inner mpc.Medium, prof Profile, clk clock.Clock) (*Medium, error) {
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	reach, _ := inner.(Reachability)
	if len(prof.Partitions) > 0 && reach == nil {
		return nil, errNoReachability
	}
	m := &Medium{
		inner:     inner,
		clk:       clk,
		reach:     reach,
		prof:      prof,
		neutral:   prof.IsZero(),
		group:     make(map[mpc.PeerID]int),
		churnDown: make(map[mpc.PairKey]bool),
	}
	for _, w := range prof.Partitions {
		m.timers = append(m.timers,
			clk.AfterFunc(w.At, m.startSplit),
			clk.AfterFunc(w.Heal, m.healSplit))
	}
	return m, nil
}

// Profile returns the active profile.
func (m *Medium) Profile() Profile { return m.prof }

// Stats snapshots the injection counters.
func (m *Medium) Stats() Stats {
	return Stats{
		FramesPassed:      m.framesPassed.Load(),
		FramesDropped:     m.framesDropped.Load(),
		FramesDuplicated:  m.framesDuplicated.Load(),
		FramesReordered:   m.framesReordered.Load(),
		FramesDelayed:     m.framesDelayed.Load(),
		OneWayDrops:       m.oneWayDrops.Load(),
		PartitionsStarted: m.partitionsStarted.Load(),
		PartitionsHealed:  m.partitionsHealed.Load(),
	}
}

// Close cancels pending partition timers. Endpoints joined through the
// wrapper are closed by their owners as usual.
func (m *Medium) Close() {
	m.mu.Lock()
	m.closed = true
	timers := m.timers
	m.timers = nil
	m.mu.Unlock()
	for _, t := range timers {
		t.Stop()
	}
}

// Join attaches a device through the chaos layer. The device's partition
// half is a deterministic function of the seed and its name, so fleet
// composition — not join order — decides who lands where.
func (m *Medium) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	ep := &endpoint{m: m, self: peer, selfH: peerHash(peer), conns: make(map[mpc.Conn]*conn)}
	m.mu.Lock()
	m.group[peer] = int(mix64(uint64(m.prof.Seed)^peerHash(peer)^saltGroup) & 1)
	var sever [][2]mpc.PeerID
	if m.splits > 0 {
		// A split is already active: pre-block the newcomer's cross-split
		// pairs before the inner medium can announce them.
		for other, g := range m.group {
			if other != peer && g != m.group[peer] {
				sever = append(sever, [2]mpc.PeerID{peer, other})
			}
		}
	}
	m.mu.Unlock()
	for _, pr := range sever {
		m.reach.SetReachable(pr[0], pr[1], false)
	}
	inner, err := m.inner.Join(peer, &eventTap{ep: ep, user: events})
	if err != nil {
		return nil, err
	}
	ep.inner = inner
	return ep, nil
}

// SetReachable composes caller-driven churn with scheduled partitions:
// a pair is effectively reachable only when the caller has it up AND no
// active partition separates the two halves.
func (m *Medium) SetReachable(a, b mpc.PeerID, up bool) {
	m.mu.Lock()
	key := mpc.MakePair(a, b)
	if up {
		delete(m.churnDown, key)
	} else {
		m.churnDown[key] = true
	}
	eff := up && !(m.splits > 0 && m.crossSplitLocked(a, b))
	reach := m.reach
	m.mu.Unlock()
	if reach != nil {
		reach.SetReachable(a, b, eff)
	}
}

// crossSplitLocked reports whether a and b are in different halves.
func (m *Medium) crossSplitLocked(a, b mpc.PeerID) bool {
	ga, oka := m.group[a]
	gb, okb := m.group[b]
	return oka && okb && ga != gb
}

// startSplit severs every cross-half pair.
func (m *Medium) startSplit() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.splits++
	pairs := m.crossPairsLocked()
	m.mu.Unlock()
	m.partitionsStarted.Add(1)
	for _, pr := range pairs {
		m.reach.SetReachable(pr[0], pr[1], false)
	}
}

// healSplit restores cross-half pairs the caller hasn't independently
// severed.
func (m *Medium) healSplit() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.splits--
	var pairs [][2]mpc.PeerID
	if m.splits == 0 {
		for _, pr := range m.crossPairsLocked() {
			if !m.churnDown[mpc.MakePair(pr[0], pr[1])] {
				pairs = append(pairs, pr)
			}
		}
	}
	m.mu.Unlock()
	m.partitionsHealed.Add(1)
	for _, pr := range pairs {
		m.reach.SetReachable(pr[0], pr[1], true)
	}
}

// crossPairsLocked enumerates every joined pair spanning the split.
func (m *Medium) crossPairsLocked() [][2]mpc.PeerID {
	var out [][2]mpc.PeerID
	for a, ga := range m.group {
		for b, gb := range m.group {
			if a < b && ga != gb {
				out = append(out, [2]mpc.PeerID{a, b})
			}
		}
	}
	return out
}

// --- endpoint ------------------------------------------------------------

// endpoint wraps one joined device, tracking the chaos view of each of
// its connections so callbacks and Connect agree on identity.
type endpoint struct {
	m     *Medium
	self  mpc.PeerID
	selfH uint64
	inner mpc.Endpoint

	mu    sync.Mutex
	conns map[mpc.Conn]*conn
}

var _ mpc.Endpoint = (*endpoint)(nil)

func (ep *endpoint) Self() mpc.PeerID { return ep.self }

func (ep *endpoint) SetAdvertisement(ad []byte) { ep.inner.SetAdvertisement(ad) }

func (ep *endpoint) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	inner, err := ep.inner.Connect(peer)
	if err != nil {
		return nil, err
	}
	return ep.wrap(inner), nil
}

func (ep *endpoint) Close() error {
	err := ep.inner.Close()
	ep.mu.Lock()
	conns := ep.conns
	ep.conns = make(map[mpc.Conn]*conn)
	ep.mu.Unlock()
	for _, c := range conns {
		c.stop()
	}
	return err
}

// wrap returns the chaos conn for an inner conn, creating it on first
// sight. Both the Connect return path and the event tap route through
// here, so each inner conn has exactly one chaos identity per endpoint.
func (ep *endpoint) wrap(inner mpc.Conn) *conn {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if c, ok := ep.conns[inner]; ok {
		return c
	}
	c := &conn{m: ep.m, inner: inner, fromH: ep.selfH, toH: peerHash(inner.Peer())}
	c.n = ep.m.pairDice(c.fromH, c.toH)
	if !ep.m.neutral {
		c.oneWayInit(ep.m.prof)
	}
	ep.conns[inner] = c
	return c
}

// pairDice returns the shared frame-index counter for a directed pair,
// creating it on first sight. The dice index must survive reconnects:
// if every new conn restarted at zero, a pair whose index-0 loss roll
// says "drop" would lose the first handshake frame of every retry —
// deterministically, forever — turning a 30% loss profile into a
// permanent blackout for ~30% of pairs.
func (m *Medium) pairDice(fromH, toH uint64) *atomic.Uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.pairN == nil {
		m.pairN = make(map[[2]uint64]*atomic.Uint64)
	}
	k := [2]uint64{fromH, toH}
	n := m.pairN[k]
	if n == nil {
		n = new(atomic.Uint64)
		m.pairN[k] = n
	}
	return n
}

// forget drops the mapping once the inner conn reports Disconnected.
func (ep *endpoint) forget(inner mpc.Conn) *conn {
	ep.mu.Lock()
	c := ep.conns[inner]
	delete(ep.conns, inner)
	ep.mu.Unlock()
	if c != nil {
		c.stop()
	}
	return c
}

// eventTap forwards inner-medium callbacks to the user with conns
// translated to their chaos identities. Discovery callbacks pass
// through untouched — chaos lives on the frame plane and, for
// partitions, on the inner medium's reachability.
type eventTap struct {
	ep   *endpoint
	user mpc.Events
}

func (t *eventTap) PeerFound(peer mpc.PeerID, ad []byte) { t.user.PeerFound(peer, ad) }
func (t *eventTap) PeerLost(peer mpc.PeerID)             { t.user.PeerLost(peer) }
func (t *eventTap) Incoming(c mpc.Conn)                  { t.user.Incoming(t.ep.wrap(c)) }
func (t *eventTap) Received(c mpc.Conn, frame []byte)    { t.user.Received(t.ep.wrap(c), frame) }
func (t *eventTap) Disconnected(c mpc.Conn, reason error) {
	wrapped := t.ep.forget(c)
	if wrapped == nil {
		wrapped = t.ep.wrap(c) // never seen: still owe the user one identity
		t.ep.forget(c)
	}
	t.user.Disconnected(wrapped, reason)
}

// --- conn ----------------------------------------------------------------

// delayed is one frame waiting in the latency queue.
type delayed struct {
	data []byte
	due  time.Time
}

// conn is the chaos view of one connection: injection happens on Send,
// receive passes through.
type conn struct {
	m     *Medium
	inner mpc.Conn
	fromH uint64
	toH   uint64
	// dropAll marks this direction of an asymmetric pair: every frame
	// vanishes while the reverse direction flows.
	dropAll bool
	// n is the directed pair's frame index, shared across every conn of
	// the pair (see Medium.pairDice); it seeds the dice.
	n *atomic.Uint64

	mu        sync.Mutex
	held      []byte // reorder slot: a frame waiting to be overtaken
	heldTimer clock.Timer
	// q is the latency queue, strictly FIFO. While it is non-empty
	// exactly one of qtimer (armed for the head's due time) and a
	// running drainDelayed owns it.
	q       []delayed
	qtimer  clock.Timer
	qclosed bool
}

var _ mpc.Conn = (*conn)(nil)

func (c *conn) Peer() mpc.PeerID { return c.inner.Peer() }
func (c *conn) Initiator() bool  { return c.inner.Initiator() }
func (c *conn) Close() error     { return c.inner.Close() }

// oneWayInit decides, per unordered pair, whether the pair is asymmetric
// and which direction is mute — the same answer on both endpoints.
func (c *conn) oneWayInit(p Profile) {
	if p.OneWay <= 0 {
		return
	}
	lo, hi := c.fromH, c.toH
	if lo > hi {
		lo, hi = hi, lo
	}
	if roll(p.Seed, lo, hi, 0, saltOneWay) >= p.OneWay {
		return
	}
	muteLoToHi := roll(p.Seed, lo, hi, 1, saltOneWay) < 0.5
	c.dropAll = muteLoToHi == (c.fromH == lo)
}

// Send rolls the profile's dice for this frame and forwards, drops,
// duplicates, holds, or delays it accordingly. Injected drops return
// nil: the caller believes the frame left, exactly as on a real radio.
func (c *conn) Send(frame []byte) error {
	if c.m.neutral {
		return c.inner.Send(frame)
	}
	p := c.m.prof
	if c.dropAll {
		c.m.oneWayDrops.Add(1)
		return nil
	}
	n := c.n.Add(1) - 1
	if p.Loss > 0 && roll(p.Seed, c.fromH, c.toH, n, saltLoss) < p.Loss {
		c.m.framesDropped.Add(1)
		return nil
	}
	dup := p.Duplicate > 0 && roll(p.Seed, c.fromH, c.toH, n, saltDup) < p.Duplicate
	reorder := p.Reorder > 0 && roll(p.Seed, c.fromH, c.toH, n, saltReorder) < p.Reorder

	c.mu.Lock()
	if reorder && c.held == nil {
		// Hold this frame; the next one on the link overtakes it. A
		// flush timer releases it if no successor shows up.
		c.held = cloneBytes(frame)
		c.heldTimer = c.m.clk.AfterFunc(reorderFlush, c.flushHeld)
		c.mu.Unlock()
		return nil
	}
	held := c.held
	c.held = nil
	if c.heldTimer != nil {
		c.heldTimer.Stop()
		c.heldTimer = nil
	}
	c.mu.Unlock()

	err := c.dispatch(frame, n)
	if dup {
		c.m.framesDuplicated.Add(1)
		c.dispatch(frame, n)
	}
	if held != nil {
		c.m.framesReordered.Add(1)
		c.dispatch(held, n)
	}
	return err
}

// flushHeld releases a held frame whose successor never came.
func (c *conn) flushHeld() {
	c.mu.Lock()
	held := c.held
	c.held = nil
	c.heldTimer = nil
	c.mu.Unlock()
	if held != nil {
		c.dispatch(held, 0)
	}
}

// dispatch forwards one frame, through the latency queue when the
// profile adds delay.
func (c *conn) dispatch(frame []byte, n uint64) error {
	p := c.m.prof
	if p.Delay == 0 && p.Jitter == 0 {
		c.m.framesPassed.Add(1)
		return c.inner.Send(frame)
	}
	delay := p.Delay
	if p.Jitter > 0 {
		delay += time.Duration(roll(p.Seed, c.fromH, c.toH, n, saltJitter) * float64(p.Jitter))
	}
	c.m.framesDelayed.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.qclosed {
		return nil
	}
	c.q = append(c.q, delayed{data: cloneBytes(frame), due: c.m.clk.Now().Add(delay)})
	if len(c.q) == 1 {
		c.qtimer = c.m.clk.AfterFunc(delay, c.drainDelayed)
	}
	return nil
}

// drainDelayed is the latency queue's timer callback. It sends every
// frame now due, head first, and re-arms the one timer for the next
// head, so delay and jitter stretch the link without reordering it. A
// frame leaves the queue only once sent: the queue stays non-empty
// while Send runs, so dispatch cannot arm a second drainer beside it.
func (c *conn) drainDelayed() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.qtimer = nil
	for len(c.q) > 0 {
		if wait := c.q[0].due.Sub(c.m.clk.Now()); wait > 0 {
			c.qtimer = c.m.clk.AfterFunc(wait, c.drainDelayed)
			return
		}
		data := c.q[0].data
		c.mu.Unlock()
		c.m.framesPassed.Add(1)
		c.inner.Send(data) // best effort: a closed conn swallows it
		c.mu.Lock()
		if len(c.q) > 0 { // stop empties the queue
			c.q = c.q[1:]
		}
	}
}

// stop tears down the conn's async machinery once it disconnects.
func (c *conn) stop() {
	c.mu.Lock()
	c.qclosed = true
	c.q = nil
	c.held = nil
	if c.heldTimer != nil {
		c.heldTimer.Stop()
		c.heldTimer = nil
	}
	if c.qtimer != nil {
		c.qtimer.Stop()
		c.qtimer = nil
	}
	c.mu.Unlock()
}

// cloneBytes copies a frame whose backing array the caller will reuse.
func cloneBytes(b []byte) []byte {
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}
