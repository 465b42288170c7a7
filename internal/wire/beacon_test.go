package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"sos/internal/id"
)

// TestBeaconPatchMatchesEncode drives a Beacon through random patches
// and checks after every step that its bytes equal Encode of the same
// fields, and that they decode back to the mirror dictionary.
func TestBeaconPatchMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	authors := make([]id.UserID, 300)
	for i := range authors {
		authors[i] = id.NewUserID(fmt.Sprintf("beacon-author-%d", i))
	}
	mirror := map[id.UserID]uint64{authors[0]: 1, authors[1]: 4}
	var b Beacon
	gen, data := uint64(5), []byte("gossip")
	if err := b.Reset("dev", gen, mirror, data); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 2000; step++ {
		switch op := rng.Intn(10); {
		case op < 5: // raise or insert
			a := authors[rng.Intn(len(authors))]
			mirror[a] += uint64(rng.Intn(5) + 1)
			if i, ok := b.Search(a); ok {
				b.SetSeq(i, mirror[a])
			} else if err := b.Insert(i, a, mirror[a]); err != nil {
				t.Fatal(err)
			}
		case op < 7 && b.Len() > 0: // delete
			i := rng.Intn(b.Len())
			delete(mirror, b.Author(i))
			b.Delete(i)
		case op < 8: // scheme data, sometimes emptied
			data = bytes.Repeat([]byte{byte(step)}, rng.Intn(40))
			if err := b.SetSchemeData(data); err != nil {
				t.Fatal(err)
			}
		default:
			gen += uint64(rng.Intn(3))
			b.SetGen(gen)
		}
		want, err := Encode(&Advertisement{Peer: "dev", Gen: gen, Summary: mirror, SchemeData: data})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), want) {
			t.Fatalf("step %d: patched beacon differs from Encode", step)
		}
		if !bytes.Equal(b.SchemeData(), data) {
			t.Fatalf("step %d: SchemeData = %q, want %q", step, b.SchemeData(), data)
		}
	}
	f, err := Decode(b.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := f.(*Advertisement).Summary; len(got) != len(mirror) {
		t.Fatalf("decoded %d entries, mirror has %d", len(got), len(mirror))
	}
	if err := CheckBeacon(b.Bytes()); err != nil {
		t.Fatalf("CheckBeacon on a patched beacon: %v", err)
	}
}

// TestBeaconPatchAllocBudget pins in-place patching at zero allocations
// once the buffer has room: raising a seq, inserting, deleting, and
// rewriting the generation and scheme data.
func TestBeaconPatchAllocBudget(t *testing.T) {
	summary := make(map[id.UserID]uint64, 1024)
	for i := 0; i < 1024; i++ {
		summary[id.NewUserID(fmt.Sprintf("budget-%d", i))] = uint64(i + 1)
	}
	var b Beacon
	if err := b.Reset("dev", 1, summary, nil); err != nil {
		t.Fatal(err)
	}
	known, fresh := id.NewUserID("budget-7"), id.NewUserID("budget-fresh")
	b.buf = append(b.buf, make([]byte, 64)...)[:len(b.buf)] // headroom for one insert
	gen := uint64(1)
	allocs := testing.AllocsPerRun(200, func() {
		gen++
		i, _ := b.Search(known)
		b.SetSeq(i, gen)
		j, _ := b.Search(fresh)
		if err := b.Insert(j, fresh, gen); err != nil {
			t.Fatal(err)
		}
		b.Delete(j)
		b.SetGen(gen)
		_ = b.SetSchemeData(nil)
	})
	if allocs != 0 {
		t.Fatalf("beacon patch allocates %.1f per run, want 0", allocs)
	}
}

func TestCheckBeacon(t *testing.T) {
	enc := func(ad *Advertisement) []byte {
		b, err := Encode(ad)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := CheckBeacon(enc(&Advertisement{Peer: "p", Gen: 3})); err != nil {
		t.Fatalf("full advertisement rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		frame []byte
		want  error
	}{
		"delta": {enc(&Advertisement{Peer: "p", Gen: 3, BaseGen: 2}), ErrBadDelta},
		"chunk": {enc(&Advertisement{Peer: "p", Gen: 3, Chunk: 1}), ErrBadChunk},
		"more":  {enc(&Advertisement{Peer: "p", Gen: 3, More: true}), ErrBadChunk},
		"bye":   {[]byte{byte(TypeBye)}, ErrBadType},
		"short": {enc(&Advertisement{Peer: "p", Gen: 3})[:12], ErrTruncated},
		"empty": {nil, ErrBadType},
	} {
		if err := CheckBeacon(tc.frame); !errors.Is(err, tc.want) {
			t.Errorf("%s: CheckBeacon = %v, want %v", name, err, tc.want)
		}
	}
}
