package message

import (
	"bytes"
	"maps"
	"slices"

	"sos/internal/id"
	"sos/internal/wire"
)

// The discovery beacon is the plain-text advertisement an unlinked peer
// sees: the summary dictionary (capped at MaxBeaconSummary authors) plus
// the scheme gossip. It only helps a peer decide whether to connect; once
// linked, the authenticated in-session deltas carry every change. So the
// beacon is kept encoded and patched in place: each Advertise folds the
// store's Changes since the beacon's generation into it — a binary search
// per changed author, an overwritten seq or an inserted entry — instead
// of rebuilding and re-encoding the dictionary per post. Up to the cap
// the bytes equal Encode of the full summary. Above it the beacon holds
// the authors that changed most recently, each at its current seq: a new
// author evicts the entry that has gone longest without a change.

// beaconState is the encoded beacon and what it reflects. Guarded by
// Manager.advMu.
type beaconState struct {
	enc    wire.Beacon
	valid  bool
	gen    uint64 // store generation folded into enc
	scheme string // scheme whose gossip enc carries
	// age[i] is the store generation at which entry i last changed, as
	// far as the beacon knows: the recency order eviction follows.
	age []uint64
}

// refreshBeacon brings the beacon to gen with the given scheme gossip.
// When the store's change log still reaches the beacon's generation it
// patches in place and returns the changes since that base, so the
// caller can reuse them for delta pushes from the same base. Otherwise
// it rebuilds from the store and returns base 0: no delta to share.
// Callers hold advMu.
func (m *Manager) refreshBeacon(peer string, gen uint64, name string, data []byte) (changes map[id.UserID]uint64, base uint64, err error) {
	b := &m.beacon
	ok := b.valid
	if ok && gen != b.gen {
		changes, ok = m.cfg.Store.Changes(b.gen)
	}
	if ok {
		for author, seq := range changes {
			b.patch(author, seq, gen)
		}
		b.enc.SetGen(gen)
		if !bytes.Equal(b.enc.SchemeData(), data) {
			err = b.enc.SetSchemeData(data)
		}
		base = b.gen
		m.mu.Lock()
		m.stats.BeaconPatches++
		m.mu.Unlock()
	} else {
		changes, err = nil, m.rebuildBeacon(peer, gen, data)
		m.mu.Lock()
		m.stats.BeaconRebuilds++
		m.mu.Unlock()
	}
	b.valid, b.gen, b.scheme = err == nil, gen, name
	return changes, base, err
}

// patch raises or inserts one author's entry, evicting the stalest entry
// when the beacon is full.
func (b *beaconState) patch(author id.UserID, seq, gen uint64) {
	i, found := b.enc.Search(author)
	if found {
		b.enc.SetSeq(i, seq)
		b.age[i] = gen
		return
	}
	// A loop, not a test: a rebuild racing concurrent puts can leave the
	// beacon a few entries over the cap, and the next insert trims it.
	for b.enc.Len() >= MaxBeaconSummary {
		victim := 0
		for j, a := range b.age {
			if a < b.age[victim] {
				victim = j
			}
		}
		b.enc.Delete(victim)
		b.age = slices.Delete(b.age, victim, victim+1)
		if victim < i {
			i--
		}
	}
	_ = b.enc.Insert(i, author, seq) // cannot overflow: the cap is far below the codec's
	b.age = slices.Insert(b.age, i, gen)
}

// rebuildBeacon encodes the beacon from the store: the full summary when
// it fits the cap; otherwise the authors changed in the last
// MaxBeaconSummary generations padded with others up to the cap. The pad
// walks summary stripes until it is full, so an oversize store never
// copies its whole dictionary. Callers hold advMu.
func (m *Manager) rebuildBeacon(peer string, gen uint64, data []byte) error {
	b := &m.beacon
	since := uint64(0)
	if gen > MaxBeaconSummary {
		since = gen - MaxBeaconSummary
	}
	recent, _ := m.cfg.Store.Changes(since)
	var summary map[id.UserID]uint64
	if m.cfg.Store.SummarySize() <= MaxBeaconSummary {
		summary = m.cfg.Store.Summary()
	} else {
		summary = make(map[id.UserID]uint64, MaxBeaconSummary)
		maps.Copy(summary, recent)
		for s := 0; s < m.cfg.Store.SummaryStripes() && len(summary) < MaxBeaconSummary; s++ {
			for author, seq := range m.cfg.Store.SummaryStripe(s) {
				if len(summary) >= MaxBeaconSummary {
					break
				}
				summary[author] = seq
			}
		}
	}
	if err := b.enc.Reset(peer, gen, summary, data); err != nil {
		return err
	}
	b.age = b.age[:0]
	for i := 0; i < b.enc.Len(); i++ {
		age := uint64(0)
		if _, ok := recent[b.enc.Author(i)]; ok {
			age = gen
		}
		b.age = append(b.age, age)
	}
	return nil
}
