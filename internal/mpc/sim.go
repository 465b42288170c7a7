package mpc

import (
	"fmt"
	"sort"
	"time"

	"sos/internal/clock"
)

// Default latencies for the simulated medium. Discovery is not instant on
// real MPC: Bonjour/BLE beacons take on the order of a second to surface a
// peer, and connection setup has a round trip.
const (
	DefaultDiscoveryDelay = 800 * time.Millisecond
	DefaultConnectDelay   = 150 * time.Millisecond
	DefaultFrameOverhead  = 4 * time.Millisecond
)

// SimStats aggregates medium-level counters for overhead reporting.
type SimStats struct {
	FramesDelivered uint64
	BytesDelivered  uint64
	FramesDropped   uint64
	Connections     uint64
	ContactsUp      uint64
	ContactsDown    uint64
}

// SimMedium is a deterministic virtual-time medium driven by the
// discrete-event simulator. The simulator establishes and cuts links as
// node mobility brings radios in and out of range; the medium models
// discovery latency, connection setup, per-technology bitrates, and
// in-flight frame loss when a contact ends mid-transfer.
//
// Its events go on the virtual clock's queue, beside the protocol
// timers. All methods must be called from the goroutine that advances
// the clock; callbacks run synchronously inside its Set and Advance.
type SimMedium struct {
	clk       *clock.Virtual
	endpoints map[PeerID]*simEndpoint
	links     map[PairKey]*simLink
	stats     SimStats

	// OnContact, when set, observes every link up/down transition.
	OnContact func(Contact)

	// Latency knobs, preset to the defaults above.
	DiscoveryDelay time.Duration
	ConnectDelay   time.Duration
	FrameOverhead  time.Duration
}

var _ Medium = (*SimMedium)(nil)

// simLink is an active radio contact between two devices.
type simLink struct {
	tech  Technology
	epoch uint64
	// busy serializes transfers per direction: the time at which the
	// direction's "radio" frees up.
	busy map[PeerID]time.Time
}

// NewSimMedium creates a simulated medium on the given virtual clock.
func NewSimMedium(clk *clock.Virtual) *SimMedium {
	return &SimMedium{
		clk:            clk,
		endpoints:      make(map[PeerID]*simEndpoint),
		links:          make(map[PairKey]*simLink),
		DiscoveryDelay: DefaultDiscoveryDelay,
		ConnectDelay:   DefaultConnectDelay,
		FrameOverhead:  DefaultFrameOverhead,
	}
}

// Stats returns the aggregate counters so far.
func (m *SimMedium) Stats() SimStats { return m.stats }

// Join implements Medium.
func (m *SimMedium) Join(peer PeerID, events Events) (Endpoint, error) {
	if peer == "" {
		return nil, fmt.Errorf("mpc: empty peer id")
	}
	if events == nil {
		return nil, fmt.Errorf("mpc: nil events for %s", peer)
	}
	if _, dup := m.endpoints[peer]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicatePeer, peer)
	}
	ep := &simEndpoint{medium: m, self: peer, events: events, conns: make(map[*simConn]bool)}
	m.endpoints[peer] = ep
	return ep, nil
}

// SetLink brings two devices into radio contact over the given
// technology. Discovery events fire after the configured delay.
func (m *SimMedium) SetLink(a, b PeerID, tech Technology) {
	key := MakePair(a, b)
	if _, up := m.links[key]; up {
		return
	}
	m.links[key] = &simLink{tech: tech, busy: make(map[PeerID]time.Time)}
	m.stats.ContactsUp++
	now := m.clk.Now()
	if m.OnContact != nil {
		m.OnContact(Contact{A: key.Lo, B: key.Hi, Tech: tech, At: now, Up: true})
	}

	epA, epB := m.endpoints[a], m.endpoints[b]
	if epA == nil || epB == nil {
		return
	}
	epoch := m.links[key].epoch
	at := now.Add(m.DiscoveryDelay)
	m.clk.Schedule(at, func() {
		link, up := m.links[key]
		if !up || link.epoch != epoch {
			return
		}
		m.announce(epA, epB)
		m.announce(epB, epA)
	})
}

// CutLink ends the radio contact between two devices: in-flight frames are
// lost, connections tear down, and PeerLost fires for advertised peers.
func (m *SimMedium) CutLink(a, b PeerID) {
	key := MakePair(a, b)
	link, up := m.links[key]
	if !up {
		return
	}
	link.epoch++
	delete(m.links, key)
	m.stats.ContactsDown++
	now := m.clk.Now()
	if m.OnContact != nil {
		m.OnContact(Contact{A: key.Lo, B: key.Hi, Tech: link.tech, At: now, Up: false})
	}

	epA, epB := m.endpoints[a], m.endpoints[b]
	if epA == nil || epB == nil {
		return
	}
	for _, conn := range epA.connsTo(b) {
		conn.teardown(ErrPeerGone)
	}
	m.clk.Schedule(now, func() {
		m.lost(epA, epB)
		m.lost(epB, epA)
	})
}

// Linked reports whether two devices currently share a link.
func (m *SimMedium) Linked(a, b PeerID) bool {
	_, up := m.links[MakePair(a, b)]
	return up
}

// announce queues PeerFound at `to` about `from` if `from` advertises.
func (m *SimMedium) announce(to, from *simEndpoint) {
	if from.ad == nil || to.closed || from.closed {
		return
	}
	to.events.PeerFound(from.self, cloneBytes(from.ad))
}

// lost fires PeerLost at `to` about `from` if `from` advertises.
func (m *SimMedium) lost(to, from *simEndpoint) {
	if from.ad == nil || to.closed || from.closed {
		return
	}
	to.events.PeerLost(from.self)
}

// linkKeysOf returns the link keys touching peer in deterministic order,
// so event generation never depends on map iteration order.
func (m *SimMedium) linkKeysOf(peer PeerID) []PairKey {
	var keys []PairKey
	for key := range m.links {
		if key.Lo == peer || key.Hi == peer {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Lo != keys[j].Lo {
			return keys[i].Lo < keys[j].Lo
		}
		return keys[i].Hi < keys[j].Hi
	})
	return keys
}

// simEndpoint is a device attached to the simulated medium.
type simEndpoint struct {
	medium *SimMedium
	self   PeerID
	events Events
	ad     []byte
	conns  map[*simConn]bool
	closed bool
}

var _ Endpoint = (*simEndpoint)(nil)

// Self implements Endpoint.
func (ep *simEndpoint) Self() PeerID { return ep.self }

// SetAdvertisement implements Endpoint. Linked peers rediscover this
// device after the discovery delay.
func (ep *simEndpoint) SetAdvertisement(ad []byte) {
	if ep.closed {
		return
	}
	wasAdvertising := ep.ad != nil
	ep.ad = cloneBytes(ad)
	m := ep.medium
	at := m.clk.Now().Add(m.DiscoveryDelay)
	for _, key := range m.linkKeysOf(ep.self) {
		link := m.links[key]
		var other PeerID
		if ep.self == key.Lo {
			other = key.Hi
		} else {
			other = key.Lo
		}
		otherEP := m.endpoints[other]
		if otherEP == nil {
			continue
		}
		epoch := link.epoch
		switch {
		case ad != nil:
			m.clk.Schedule(at, func() {
				if l, up := m.links[key]; up && l.epoch == epoch {
					m.announce(otherEP, ep)
				}
			})
		case wasAdvertising:
			m.clk.Schedule(m.clk.Now(), func() {
				if !otherEP.closed {
					otherEP.events.PeerLost(ep.self)
				}
			})
		}
	}
}

// Connect implements Endpoint. The connection exists immediately on the
// initiator side; the responder sees Incoming after the connect delay.
func (ep *simEndpoint) Connect(peer PeerID) (Conn, error) {
	if ep.closed {
		return nil, ErrClosed
	}
	if peer == ep.self {
		return nil, ErrSelfConnect
	}
	m := ep.medium
	remote, known := m.endpoints[peer]
	if !known || remote.closed {
		return nil, fmt.Errorf("%w: %s", ErrPeerUnknown, peer)
	}
	key := MakePair(ep.self, peer)
	link, up := m.links[key]
	if !up {
		return nil, fmt.Errorf("%w: %s", ErrPeerGone, peer)
	}

	readyAt := m.clk.Now().Add(m.ConnectDelay)
	local := &simConn{medium: m, localEP: ep, remoteEP: remote, pair: key, epoch: link.epoch, initiator: true, readyAt: readyAt}
	remoteSide := &simConn{medium: m, localEP: remote, remoteEP: ep, pair: key, epoch: link.epoch, initiator: false, readyAt: readyAt}
	local.twin, remoteSide.twin = remoteSide, local
	ep.conns[local] = true
	remote.conns[remoteSide] = true
	m.stats.Connections++

	m.clk.Schedule(readyAt, func() {
		if remoteSide.closed || remote.closed {
			return
		}
		if l, stillUp := m.links[key]; !stillUp || l.epoch != remoteSide.epoch {
			return
		}
		remote.events.Incoming(remoteSide)
	})
	return local, nil
}

// Close implements Endpoint.
func (ep *simEndpoint) Close() error {
	if ep.closed {
		return nil
	}
	wasAdvertising := ep.ad != nil
	ep.ad = nil
	for conn := range ep.conns {
		conn.teardown(ErrClosed)
	}
	m := ep.medium
	if wasAdvertising {
		for _, key := range m.linkKeysOf(ep.self) {
			var other PeerID
			if ep.self == key.Lo {
				other = key.Hi
			} else {
				other = key.Lo
			}
			if otherEP := m.endpoints[other]; otherEP != nil && !otherEP.closed {
				peer := ep.self
				target := otherEP
				m.clk.Schedule(m.clk.Now(), func() {
					if !target.closed {
						target.events.PeerLost(peer)
					}
				})
			}
		}
	}
	ep.closed = true
	delete(m.endpoints, ep.self)
	return nil
}

// connsTo snapshots the endpoint's connections to a given peer.
func (ep *simEndpoint) connsTo(peer PeerID) []*simConn {
	var out []*simConn
	for conn := range ep.conns {
		if conn.remoteEP.self == peer {
			out = append(out, conn)
		}
	}
	return out
}

// simConn is one side of a simulated connection.
type simConn struct {
	medium    *SimMedium
	localEP   *simEndpoint
	remoteEP  *simEndpoint
	twin      *simConn
	pair      PairKey
	epoch     uint64
	initiator bool
	closed    bool
	// readyAt is when connection setup completes (the responder's Incoming
	// callback); no frame may be delivered before it.
	readyAt time.Time
}

var _ Conn = (*simConn)(nil)

// Peer implements Conn.
func (c *simConn) Peer() PeerID { return c.remoteEP.self }

// Initiator implements Conn.
func (c *simConn) Initiator() bool { return c.initiator }

// Send implements Conn. Transfer time is the frame size over the link
// technology's bitrate plus fixed per-frame overhead; transfers in one
// direction are serialized. A frame still in flight when the contact ends
// is silently lost — exactly the failure the message manager must recover
// from.
func (c *simConn) Send(frame []byte) error {
	if c.closed {
		return ErrClosed
	}
	m := c.medium
	link, up := m.links[c.pair]
	if !up || link.epoch != c.epoch {
		c.teardown(ErrPeerGone)
		return ErrPeerGone
	}

	now := m.clk.Now()
	start := now
	if c.readyAt.After(start) {
		start = c.readyAt
	}
	if busy := link.busy[c.localEP.self]; busy.After(start) {
		start = busy
	}
	duration := m.FrameOverhead + time.Duration(float64(len(frame))/link.tech.Bitrate()*float64(time.Second))
	deliverAt := start.Add(duration)
	link.busy[c.localEP.self] = deliverAt

	payload := cloneBytes(frame)
	twin := c.twin
	epoch := c.epoch
	size := uint64(len(frame))
	m.clk.Schedule(deliverAt, func() {
		l, stillUp := m.links[c.pair]
		if !stillUp || l.epoch != epoch || twin.closed || twin.localEP.closed {
			m.stats.FramesDropped++
			return
		}
		m.stats.FramesDelivered++
		m.stats.BytesDelivered += size
		twin.localEP.events.Received(twin, payload)
	})
	return nil
}

// Close implements Conn.
func (c *simConn) Close() error {
	c.teardown(ErrClosed)
	return nil
}

// teardown closes both sides once and queues Disconnected for each.
func (c *simConn) teardown(reason error) {
	if c.closed {
		return
	}
	c.closed = true
	c.twin.closed = true
	delete(c.localEP.conns, c)
	delete(c.remoteEP.conns, c.twin)

	m := c.medium
	local, remote, twin := c.localEP, c.remoteEP, c.twin
	m.clk.Schedule(m.clk.Now(), func() {
		if !local.closed {
			local.events.Disconnected(c, reason)
		}
		if !remote.closed {
			remote.events.Disconnected(twin, reason)
		}
	})
}
