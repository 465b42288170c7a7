package netmedium

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

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

// beacon is the decoded form of one discovery datagram: who the sender
// is, which incarnation of it is speaking, where its per-technology TCP
// listeners are, and — if it is advertising — the opaque advertisement
// payload the layers above will decode as a wire.Advertisement.
type beacon struct {
	name        mpc.PeerID
	epoch       uint64 // random per-endpoint incarnation; changes on restart
	goodbye     bool
	advertising bool
	ports       map[mpc.Technology]uint16
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
	if len(b.ports) > 255 {
		return nil, fmt.Errorf("netmedium: %d technologies in beacon", len(b.ports))
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
	// Emit the port table sorted by technology so the encoding is
	// deterministic and the entry count always matches the entries.
	techs := make([]mpc.Technology, 0, len(b.ports))
	for tech := range b.ports {
		if tech <= 0 || tech > 255 {
			return nil, fmt.Errorf("netmedium: technology %d does not fit the beacon encoding", tech)
		}
		techs = append(techs, tech)
	}
	sort.Slice(techs, func(i, j int) bool { return techs[i] < techs[j] })
	out = append(out, byte(len(techs)))
	for _, tech := range techs {
		out = append(out, byte(tech))
		out = binary.BigEndian.AppendUint16(out, b.ports[tech])
	}
	if b.advertising {
		out = binary.BigEndian.AppendUint16(out, uint16(len(b.ad)))
		out = append(out, b.ad...)
	}
	return out, nil
}

// parseBeacon decodes one datagram, rejecting anything that is not a
// well-formed SOS beacon. The advertisement payload aliases buf.
func parseBeacon(buf []byte) (*beacon, error) {
	if len(buf) < 15 || [4]byte(buf[:4]) != beaconMagic {
		return nil, errBadBeacon
	}
	if buf[4] != beaconVersion {
		return nil, fmt.Errorf("%w: version %d", errBadBeacon, buf[4])
	}
	flags := buf[5]
	b := &beacon{
		epoch:       binary.BigEndian.Uint64(buf[6:14]),
		goodbye:     flags&flagGoodbye != 0,
		advertising: flags&flagAdvertising != 0,
		ports:       make(map[mpc.Technology]uint16),
	}
	rest := buf[14:]
	nameLen := int(rest[0])
	rest = rest[1:]
	if nameLen == 0 || len(rest) < nameLen+1 {
		return nil, errBadBeacon
	}
	b.name = mpc.PeerID(rest[:nameLen])
	rest = rest[nameLen:]
	ntech := int(rest[0])
	rest = rest[1:]
	if len(rest) < 3*ntech {
		return nil, errBadBeacon
	}
	for i := 0; i < ntech; i++ {
		tech := mpc.Technology(rest[0])
		b.ports[tech] = binary.BigEndian.Uint16(rest[1:3])
		rest = rest[3:]
	}
	if b.advertising {
		if len(rest) < 2 {
			return nil, errBadBeacon
		}
		adLen := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != adLen {
			return nil, errBadBeacon
		}
		b.ad = rest
	} else if len(rest) != 0 {
		return nil, errBadBeacon
	}
	return b, nil
}
