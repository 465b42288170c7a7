package main

import (
	"sync"

	"sos/internal/id"
	"sos/internal/mpc"
	"sos/internal/msg"
	"sos/internal/store"
)

// timedStore is the store.Engine handed to core.Config.Store in the traced
// run. It times the calls the per-layer metrics name and forwards every
// call unchanged, so the middleware above it behaves as with the bare
// engine (wrap_test.go runs it through the store conformance suite).
type timedStore struct {
	store.Engine
	t    *tracer
	node int
}

func (s *timedStore) Put(m *msg.Message) (bool, error) {
	start := s.t.now()
	added, err := s.Engine.Put(m)
	s.t.leaf(s.node, "store.put", start, s.t.now(), 0, false)
	return added, err
}

func (s *timedStore) Missing(author id.UserID, upto uint64) []uint64 {
	start := s.t.now()
	out := s.Engine.Missing(author, upto)
	s.t.leaf(s.node, "store.missing", start, s.t.now(), 0, len(out) == 0)
	return out
}

func (s *timedStore) Changes(sinceGen uint64) (map[id.UserID]uint64, bool) {
	start := s.t.now()
	out, ok := s.Engine.Changes(sinceGen)
	s.t.leaf(s.node, "store.changes", start, s.t.now(), 0, false)
	return out, ok
}

func (s *timedStore) Select(author id.UserID, seqs []uint64) []*msg.Message {
	start := s.t.now()
	out := s.Engine.Select(author, seqs)
	s.t.leaf(s.node, "store.select", start, s.t.now(), 0, false)
	return out
}

func (s *timedStore) SummaryStripe(i int) map[id.UserID]uint64 {
	start := s.t.now()
	out := s.Engine.SummaryStripe(i)
	s.t.leaf(s.node, "store.summary_stripe", start, s.t.now(), 0, false)
	return out
}

// timedMedium is the mpc.Medium handed to core.Config.Medium in the traced
// run. Inbound events become root spans (the node's work per event),
// outbound calls become leaf spans, and every connection is wrapped
// exactly once, so Incoming, Received and Disconnected see the same
// mpc.Conn value the node got from Connect.
type timedMedium struct {
	mpc.Medium
	t    *tracer
	node int
}

func (m *timedMedium) Join(peer mpc.PeerID, events mpc.Events) (mpc.Endpoint, error) {
	ev := &timedEvents{inner: events, t: m.t, node: m.node, conns: make(map[mpc.Conn]*timedConn)}
	ep, err := m.Medium.Join(peer, ev)
	if err != nil {
		return nil, err
	}
	return &timedEndpoint{Endpoint: ep, ev: ev}, nil
}

type timedEndpoint struct {
	mpc.Endpoint
	ev *timedEvents
}

func (e *timedEndpoint) SetAdvertisement(ad []byte) {
	start := e.ev.t.now()
	e.Endpoint.SetAdvertisement(ad)
	e.ev.t.leaf(e.ev.node, "mpc.beacon", start, e.ev.t.now(), len(ad), false)
}

func (e *timedEndpoint) Connect(peer mpc.PeerID) (mpc.Conn, error) {
	start := e.ev.t.now()
	c, err := e.Endpoint.Connect(peer)
	e.ev.t.leaf(e.ev.node, "mpc.connect", start, e.ev.t.now(), 0, false)
	if err != nil {
		return nil, err
	}
	return e.ev.wrap(c), nil
}

type timedConn struct {
	mpc.Conn
	t    *tracer
	node int
}

func (c *timedConn) Send(frame []byte) error {
	start := c.t.now()
	err := c.Conn.Send(frame)
	c.t.leaf(c.node, "mpc.send", start, c.t.now(), len(frame), false)
	return err
}

// timedEvents sits between the medium and the node's event handler.
type timedEvents struct {
	inner mpc.Events
	t     *tracer
	node  int

	mu    sync.Mutex
	conns map[mpc.Conn]*timedConn
}

// wrap returns the one wrapper of an inner connection.
func (e *timedEvents) wrap(c mpc.Conn) *timedConn {
	e.mu.Lock()
	defer e.mu.Unlock()
	w := e.conns[c]
	if w == nil {
		w = &timedConn{Conn: c, t: e.t, node: e.node}
		e.conns[c] = w
	}
	return w
}

// event runs one callback as a root span on the events lane.
//
//go:noinline
func (e *timedEvents) event(name string, size int, fn func()) {
	r := e.t.beginRoot(e.node, laneEvents, name)
	fn()
	e.t.endRoot(r, size)
}

func (e *timedEvents) PeerFound(peer mpc.PeerID, ad []byte) {
	e.event("mpc.peer_found", len(ad), func() { e.inner.PeerFound(peer, ad) })
}

func (e *timedEvents) PeerLost(peer mpc.PeerID) {
	e.event("mpc.peer_lost", 0, func() { e.inner.PeerLost(peer) })
}

func (e *timedEvents) Incoming(c mpc.Conn) {
	e.event("mpc.incoming", 0, func() { e.inner.Incoming(e.wrap(c)) })
}

func (e *timedEvents) Received(c mpc.Conn, frame []byte) {
	e.event("mpc.received", len(frame), func() { e.inner.Received(e.wrap(c), frame) })
}

// Disconnected is the connection's final event, so its wrapper is
// forgotten afterwards.
func (e *timedEvents) Disconnected(c mpc.Conn, reason error) {
	e.event("mpc.disconnected", 0, func() { e.inner.Disconnected(e.wrap(c), reason) })
	e.mu.Lock()
	delete(e.conns, c)
	e.mu.Unlock()
}
