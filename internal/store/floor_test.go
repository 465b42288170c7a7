package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sos/internal/id"
	"sos/internal/msg"
	"sos/internal/wire"
)

// referenceMissing is the gap-walk Missing the accounted floor replaced:
// sort every held and tombstoned seq up to upto and emit the complement,
// truncated to one want's worth. It is kept only as the oracle for the
// differential test.
func referenceMissing(s *Store, author id.UserID, upto uint64) []uint64 {
	s.mu.RLock()
	held := s.byAuthor[author]
	tombs := s.dropped[author]
	accounted := make([]uint64, 0, len(held)+len(tombs))
	for seq := range held {
		if seq <= upto {
			accounted = append(accounted, seq)
		}
	}
	for seq := range tombs {
		if seq <= upto && held[seq] == nil {
			accounted = append(accounted, seq)
		}
	}
	s.mu.RUnlock()

	sort.Slice(accounted, func(i, j int) bool { return accounted[i] < accounted[j] })
	var missing []uint64
	next := uint64(1)
	for _, seq := range accounted {
		for ; next < seq && len(missing) < wire.MaxSeqsPerWant; next++ {
			missing = append(missing, next)
		}
		next = seq + 1
	}
	for ; next <= upto && len(missing) < wire.MaxSeqsPerWant; next++ {
		missing = append(missing, next)
	}
	return missing
}

// checkIndex verifies the authorIndex invariants against the seq sets.
func checkIndex(s *Store, author id.UserID) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ix := s.index[author]
	held, tombs := s.byAuthor[author], s.dropped[author]
	accounted := func(seq uint64) bool { return held[seq] != nil || tombs[seq] }
	var top uint64
	for seq := range held {
		top = max(top, seq)
	}
	for seq := range tombs {
		top = max(top, seq)
	}
	var floor uint64
	for accounted(floor + 1) {
		floor++
	}
	if ix.floor != floor || ix.top != top {
		return fmt.Errorf("index floor/top = %d/%d, want %d/%d", ix.floor, ix.top, floor, top)
	}
	return nil
}

// TestMissingMatchesReference drives random puts (with quota evictions),
// replayed tombstones, and tombstone-cap pruning against the store, and
// after every step compares Missing with the gap-walk oracle and the
// index with its definition.
func TestMissingMatchesReference(t *testing.T) {
	authors := []id.UserID{bob, carol, id.NewUserID("dave")}
	for run := int64(0); run < 6; run++ {
		rng := rand.New(rand.NewSource(run))
		s := NewMemory(alice, Options{MaxMessages: rng.Intn(40)})
		for step := 0; step < 300; step++ {
			author := authors[rng.Intn(len(authors))]
			switch op := rng.Intn(100); {
			case op < 70:
				if _, err := s.Put(post(author, uint64(1+rng.Intn(120)), "m")); err != nil {
					t.Fatal(err)
				}
			case op < 98:
				// A restored snapshot or log tombstone, possibly above
				// every seq the author ever put.
				s.applyEvict(msg.Ref{Author: author, Seq: uint64(1 + rng.Intn(150))})
			default:
				// Tombstone a whole block so the author crosses the
				// per-author cap and the lowest half is forgotten.
				base := uint64(rng.Intn(200))
				for seq := base + 1; seq <= base+2*maxTombstonesPerAuthor; seq++ {
					s.applyEvict(msg.Ref{Author: author, Seq: seq})
				}
			}
			// An operation touches only its author's accounting.
			if err := checkIndex(s, author); err != nil {
				t.Fatalf("run %d step %d author %s: %v", run, step, author, err)
			}
			uptos := []uint64{0, uint64(rng.Intn(130)), s.index[author].floor, s.index[author].top + 3}
			if step%50 == 0 {
				uptos = append(uptos, 70_000) // past the want bound
			}
			for _, upto := range uptos {
				got, want := s.Missing(author, upto), referenceMissing(s, author, upto)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d step %d: Missing(%s, %d) = %d seqs %v..., reference %d seqs %v...",
						run, step, author, upto, len(got), head(got), len(want), head(want))
				}
			}
		}
	}
}

func head(seqs []uint64) []uint64 { return seqs[:min(len(seqs), 8)] }

// TestMissingAllocBudget pins the resync heartbeat's common case: asking
// about an author the store has caught up on allocates nothing.
func TestMissingAllocBudget(t *testing.T) {
	s := New(alice)
	for seq := uint64(1); seq <= 3; seq++ {
		mustPut(t, s, post(bob, seq, "m"))
	}
	cases := []struct {
		name   string
		author id.UserID
		upto   uint64
		allocs float64
	}{
		{"caught-up", bob, 3, 0},
		{"behind-advert", bob, 2, 0},
		{"contiguous-tail", bob, 5, 1},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(100, func() { s.Missing(c.author, c.upto) }); got != c.allocs {
			t.Errorf("%s: Missing allocs = %v, want %v", c.name, got, c.allocs)
		}
	}
}
