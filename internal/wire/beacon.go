package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"sos/internal/id"
)

// beaconEntryLen is the encoded size of one summary entry: the author's
// UserID followed by its big-endian sequence number.
const beaconEntryLen = id.UserIDLen + 8

// Beacon is a full, single-frame Advertisement kept in its encoded form
// so it can be patched in place: a sequence raised, an author inserted or
// removed, the generation or scheme data rewritten, each without
// re-encoding the dictionary. Entries stay sorted by author, so the bytes
// are always exactly what Encode would produce for the same fields — a
// patched beacon is indistinguishable on the wire from a rebuilt one.
//
// The zero value is empty; call Reset before any other method. A Beacon
// is not safe for concurrent use.
type Beacon struct {
	buf   []byte
	genAt int // offset of the Gen field
	n     int // summary entries
}

// Reset re-encodes the beacon from a complete summary, reusing the
// buffer.
func (b *Beacon) Reset(peer string, gen uint64, summary map[id.UserID]uint64, schemeData []byte) error {
	enc, err := appendAdvertisement(b.buf[:0], &Advertisement{
		Peer: peer, Gen: gen, Summary: summary, SchemeData: schemeData,
	})
	if err != nil {
		return err
	}
	b.buf, b.genAt, b.n = enc, 2+len(peer), len(summary)
	return nil
}

// Bytes returns the encoded advertisement. The slice aliases the
// beacon's buffer and is invalidated by the next patch.
func (b *Beacon) Bytes() []byte { return b.buf }

// Len returns the number of summary entries.
func (b *Beacon) Len() int { return b.n }

// entriesAt is the offset of the first summary entry: Gen, BaseGen,
// Chunk, the more flag, and the entry count follow the peer name.
func (b *Beacon) entriesAt() int { return b.genAt + 8 + 8 + 4 + 1 + 4 }

// entry returns the offset of entry i.
func (b *Beacon) entry(i int) int { return b.entriesAt() + i*beaconEntryLen }

// SetGen rewrites the advertised generation.
func (b *Beacon) SetGen(gen uint64) {
	binary.BigEndian.PutUint64(b.buf[b.genAt:], gen)
}

// Search returns the index of author's entry and whether it is present;
// when absent, the index is where Insert would place it.
func (b *Beacon) Search(author id.UserID) (int, bool) {
	lo, hi := 0, b.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		at := b.entry(mid)
		switch c := bytes.Compare(b.buf[at:at+id.UserIDLen], author[:]); {
		case c < 0:
			lo = mid + 1
		case c > 0:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Author returns the author of entry i.
func (b *Beacon) Author(i int) id.UserID {
	return id.UserID(b.buf[b.entry(i):])
}

// SetSeq rewrites the sequence number of entry i.
func (b *Beacon) SetSeq(i int, seq uint64) {
	binary.BigEndian.PutUint64(b.buf[b.entry(i)+id.UserIDLen:], seq)
}

// Insert adds an entry at index i, which must be the index Search
// returned for the absent author, so the entries stay sorted.
func (b *Beacon) Insert(i int, author id.UserID, seq uint64) error {
	if b.n >= MaxSummaryEntries {
		return fmt.Errorf("%w: %d summary entries", ErrOversize, b.n+1)
	}
	var e [beaconEntryLen]byte
	copy(e[:], author[:])
	binary.BigEndian.PutUint64(e[id.UserIDLen:], seq)
	b.buf = slices.Insert(b.buf, b.entry(i), e[:]...)
	b.setLen(b.n + 1)
	return nil
}

// Delete removes entry i.
func (b *Beacon) Delete(i int) {
	at := b.entry(i)
	b.buf = slices.Delete(b.buf, at, at+beaconEntryLen)
	b.setLen(b.n - 1)
}

// setLen records a new entry count in the header and the beacon.
func (b *Beacon) setLen(n int) {
	b.n = n
	binary.BigEndian.PutUint32(b.buf[b.entriesAt()-4:], uint32(n))
}

// SchemeData returns the scheme gossip the beacon carries, aliasing the
// beacon's buffer.
func (b *Beacon) SchemeData() []byte {
	return b.buf[b.entry(b.n)+2:]
}

// SetSchemeData rewrites the scheme gossip at the tail of the frame.
func (b *Beacon) SetSchemeData(data []byte) error {
	if len(data) > MaxSchemeData {
		return fmt.Errorf("%w: %d scheme-data bytes", ErrOversize, len(data))
	}
	b.buf = appendBytes16(b.buf[:b.entry(b.n)], data)
	return nil
}

// CheckBeacon reports whether enc is the encoding of an Advertisement
// fit to be a discovery beacon: full (BaseGen zero) and not chunked. It
// reads only the fixed header, so it costs nothing per summary entry;
// receivers still decode and validate the whole frame.
func CheckBeacon(enc []byte) error {
	if len(enc) < 2 || Type(enc[0]) != TypeAdvertisement {
		return fmt.Errorf("%w: not an advertisement", ErrBadType)
	}
	genAt := 2 + int(enc[1])
	if len(enc) < genAt+8+8+4+1 {
		return fmt.Errorf("%w: advertisement header", ErrTruncated)
	}
	if binary.BigEndian.Uint64(enc[genAt+8:]) != 0 {
		return fmt.Errorf("%w: delta advertisement", ErrBadDelta)
	}
	if binary.BigEndian.Uint32(enc[genAt+16:]) != 0 || enc[genAt+20] != 0 {
		return fmt.Errorf("%w: chunked advertisement", ErrBadChunk)
	}
	return nil
}
