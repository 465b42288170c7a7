package netmedium

import (
	"encoding/binary"
	"errors"
	"fmt"

	"sos/internal/mpc"
)

// Discovery beacons are single UDP datagrams, so the whole encoding —
// header, per-technology port table, and advertisement payload — must fit
// one datagram. MaxBeaconAd caps the opaque advertisement payload far
// enough below the 65507-byte UDP maximum to leave room for the rest.
const MaxBeaconAd = 60000

// beaconMagic distinguishes SOS discovery datagrams from stray traffic on
// the beacon port.
var beaconMagic = [4]byte{'S', 'O', 'S', 'B'}

const beaconVersion = 1

// Beacon flag bits.
const (
	flagGoodbye     = 1 << 0 // the sender is detaching from the medium
	flagAdvertising = 1 << 1 // the ad payload field is present
)

// Errors reported by the beacon codec.
var (
	errBadBeacon = errors.New("netmedium: malformed beacon")
	errAdTooBig  = errors.New("netmedium: advertisement exceeds beacon capacity")
)

// maxBeaconTechs caps a beacon's port table: one entry per radio
// technology, with room to spare.
const maxBeaconTechs = 8

// techPort is one port-table entry: a technology's TCP listener port.
type techPort struct {
	tech mpc.Technology
	port uint16
}

// portTable lists a beacon's per-technology listener ports in wire
// order. A fixed array keeps parsing free of allocations and lets an
// unchanged table compare equal with ==.
type portTable struct {
	n       int
	entries [maxBeaconTechs]techPort
}

// add appends one entry.
func (t *portTable) add(tech mpc.Technology, port uint16) error {
	if tech <= 0 || tech > 255 {
		return fmt.Errorf("netmedium: technology %d does not fit the beacon encoding", tech)
	}
	if t.n == maxBeaconTechs {
		return fmt.Errorf("netmedium: more than %d technologies in beacon", maxBeaconTechs)
	}
	t.entries[t.n] = techPort{tech, port}
	t.n++
	return nil
}

// list returns the table's entries.
func (t *portTable) list() []techPort { return t.entries[:t.n] }

// beacon is the decoded form of one discovery datagram: who the sender
// is, which incarnation of it is speaking, where its per-technology TCP
// listeners are, and — if it is advertising — the opaque advertisement
// payload the layers above will decode as a wire.Advertisement.
type beacon struct {
	name        []byte
	epoch       uint64 // random per-endpoint incarnation; changes on restart
	goodbye     bool
	advertising bool
	ports       portTable
	ad          []byte
}

// encode serializes the beacon.
//
//	magic(4) version(1) flags(1) epoch(8)
//	nameLen(1) name
//	ntech(1) { tech(1) port(2) }*
//	[ adLen(2) ad ]           — present iff advertising
func (b *beacon) encode() ([]byte, error) {
	if len(b.name) == 0 || len(b.name) > 255 {
		return nil, fmt.Errorf("netmedium: beacon name %d bytes", len(b.name))
	}
	if b.advertising && len(b.ad) > MaxBeaconAd {
		return nil, fmt.Errorf("%w: %d bytes", errAdTooBig, len(b.ad))
	}
	var flags byte
	if b.goodbye {
		flags |= flagGoodbye
	}
	if b.advertising {
		flags |= flagAdvertising
	}
	out := make([]byte, 0, 64+len(b.ad))
	out = append(out, beaconMagic[:]...)
	out = append(out, beaconVersion, flags)
	out = binary.BigEndian.AppendUint64(out, b.epoch)
	out = append(out, byte(len(b.name)))
	out = append(out, b.name...)
	out = append(out, byte(b.ports.n))
	for _, e := range b.ports.list() {
		out = append(out, byte(e.tech))
		out = binary.BigEndian.AppendUint16(out, e.port)
	}
	if b.advertising {
		out = binary.BigEndian.AppendUint16(out, uint16(len(b.ad)))
		out = append(out, b.ad...)
	}
	return out, nil
}

// parseBeacon decodes one datagram into b, rejecting anything that is
// not a well-formed SOS beacon. The name and advertisement payload alias
// buf, so a receive loop can reuse one beacon and one buffer for every
// datagram without allocating.
func parseBeacon(buf []byte, b *beacon) error {
	*b = beacon{}
	if len(buf) < 15 || [4]byte(buf[:4]) != beaconMagic {
		return errBadBeacon
	}
	if buf[4] != beaconVersion {
		return fmt.Errorf("%w: version %d", errBadBeacon, buf[4])
	}
	flags := buf[5]
	b.epoch = binary.BigEndian.Uint64(buf[6:14])
	b.goodbye = flags&flagGoodbye != 0
	b.advertising = flags&flagAdvertising != 0
	rest := buf[14:]
	nameLen := int(rest[0])
	rest = rest[1:]
	if nameLen == 0 || len(rest) < nameLen+1 {
		return errBadBeacon
	}
	b.name = rest[:nameLen]
	rest = rest[nameLen:]
	ntech := int(rest[0])
	rest = rest[1:]
	if ntech > maxBeaconTechs || len(rest) < 3*ntech {
		return errBadBeacon
	}
	for i := 0; i < ntech; i++ {
		b.ports.entries[i] = techPort{mpc.Technology(rest[0]), binary.BigEndian.Uint16(rest[1:3])}
		rest = rest[3:]
	}
	b.ports.n = ntech
	if b.advertising {
		if len(rest) < 2 {
			return errBadBeacon
		}
		adLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != adLen {
			return errBadBeacon
		}
		b.ad = rest
	} else if len(rest) != 0 {
		return errBadBeacon
	}
	return nil
}
