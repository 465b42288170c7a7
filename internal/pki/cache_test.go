package pki

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"sos/internal/id"
)

// warmVerifier issues a certificate for handle and verifies it once, so
// the returned verifier holds it in its cache.
func warmVerifier(t *testing.T, ca *CA, now func() time.Time, handle string) (*Verifier, *UserCert) {
	t.Helper()
	ident := newTestIdentity(t, handle)
	cert, err := ca.Issue(ident.User, ident.Public())
	if err != nil {
		t.Fatalf("Issue: %v", err)
	}
	v, err := NewVerifier(ca.RootDER(), now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	if _, err := v.Verify(cert.DER); err != nil {
		t.Fatalf("cold Verify: %v", err)
	}
	return v, cert
}

// coldErr verifies der on a fresh verifier: the answer a cache hit must
// reproduce.
func coldErr(t *testing.T, ca *CA, now func() time.Time, crl map[string]time.Time, der []byte) error {
	t.Helper()
	v, err := NewVerifier(ca.RootDER(), now)
	if err != nil {
		t.Fatalf("NewVerifier: %v", err)
	}
	v.UpdateCRL(crl)
	_, err = v.Verify(der)
	return err
}

func TestVerifyCacheHitSharesResult(t *testing.T) {
	v, cert := warmVerifier(t, newTestCA(t), nil, "alice")
	first, err := v.Verify(cert.DER)
	if err != nil {
		t.Fatalf("warm Verify: %v", err)
	}
	second, err := v.Verify(cert.DER)
	if err != nil {
		t.Fatalf("warm Verify: %v", err)
	}
	if first != second {
		t.Error("two hits on the same bytes returned different certificates")
	}
	if got := v.Stats(); got != (VerifierStats{Cached: 2, Full: 1}) {
		t.Errorf("stats = %+v, want 2 cached and 1 full", got)
	}
}

func TestVerifyCacheWarmEntryRevoked(t *testing.T) {
	ca := newTestCA(t)
	v, cert := warmVerifier(t, ca, nil, "alice")

	ca.Revoke(cert.Serial)
	// Offline: the device has not synced, so the warm entry still serves.
	if _, err := v.Verify(cert.DER); err != nil {
		t.Fatalf("pre-sync warm Verify: %v", err)
	}
	v.UpdateCRL(ca.CRL())
	for i := 0; i < 2; i++ {
		if _, err := v.Verify(cert.DER); !errors.Is(err, ErrRevoked) {
			t.Fatalf("post-sync warm Verify #%d: err = %v, want ErrRevoked", i, err)
		}
	}
	// A later CRL that drops the serial makes the certificate usable again.
	v.UpdateCRL(nil)
	if _, err := v.Verify(cert.DER); err != nil {
		t.Errorf("Verify after the serial left the CRL: %v", err)
	}
}

func TestVerifyCacheWarmEntryLeafWindow(t *testing.T) {
	start := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	current := start
	clock := func() time.Time { return current }
	ca := newTestCA(t, WithClock(clock), WithLeafValidity(48*time.Hour))
	v, cert := warmVerifier(t, ca, clock, "alice")

	for _, at := range []time.Time{
		start.Add(72 * time.Hour),        // past the leaf's NotAfter
		start.Add(-time.Hour),            // before the leaf's NotBefore
		start.Add(-365 * 24 * time.Hour), // before the root's too
	} {
		current = at
		want := coldErr(t, ca, clock, nil, cert.DER)
		if !errors.Is(want, ErrExpired) {
			t.Fatalf("cold Verify at %s: err = %v, want ErrExpired", at, want)
		}
		if _, err := v.Verify(cert.DER); !errors.Is(err, ErrExpired) {
			t.Errorf("warm Verify at %s: err = %v, want ErrExpired", at, err)
		}
	}
	current = start.Add(time.Hour)
	if _, err := v.Verify(cert.DER); err != nil {
		t.Errorf("warm Verify back inside the window: %v", err)
	}
}

func TestVerifyCacheWarmEntryRootWindow(t *testing.T) {
	start := time.Date(2017, 4, 1, 0, 0, 0, 0, time.UTC)
	current := start
	clock := func() time.Time { return current }
	// The leaf outlives the root, so only the root's window can fail.
	ca := newTestCA(t, WithClock(clock), WithLeafValidity(2*DefaultRootValidity))
	v, cert := warmVerifier(t, ca, clock, "alice")

	current = start.Add(DefaultRootValidity + 24*time.Hour)
	want := coldErr(t, ca, clock, nil, cert.DER)
	if !errors.Is(want, ErrUntrusted) {
		t.Fatalf("cold Verify past the root's NotAfter: err = %v, want ErrUntrusted", want)
	}
	if _, err := v.Verify(cert.DER); !errors.Is(err, ErrUntrusted) {
		t.Errorf("warm Verify past the root's NotAfter: err = %v, want ErrUntrusted", err)
	}
}

func TestVerifyCacheOwnsItsBytes(t *testing.T) {
	ca := newTestCA(t)
	v, err := NewVerifier(ca.RootDER(), nil)
	if err != nil {
		t.Fatal(err)
	}
	bob := newTestIdentity(t, "bob")
	bobCert, err := ca.Issue(bob.User, bob.Public())
	if err != nil {
		t.Fatal(err)
	}
	orig := bytes.Clone(bobCert.DER)
	buf := bytes.Clone(orig)
	got, err := v.Verify(buf)
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	// The caller reuses its buffer (a link's decode scratch does).
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if !bytes.Equal(got.DER, orig) || !bytes.Equal(got.Cert.Raw, orig) {
		t.Fatal("the verified certificate aliases the caller's buffer")
	}
	before := v.Stats()
	if _, err := v.Verify(buf); err == nil {
		t.Error("Verify of the scribbled buffer succeeded")
	}
	if v.Stats().Cached != before.Cached {
		t.Error("the scribbled buffer hit the cache")
	}
	again, err := v.Verify(orig)
	if err != nil {
		t.Fatalf("Verify of the original bytes: %v", err)
	}
	if again != got || v.Stats().Cached != before.Cached+1 {
		t.Error("the original bytes missed the cache")
	}
	if again.User != bob.User || !again.Key.Equal(bob.Public()) {
		t.Error("the cached entry no longer names its certificate's user and key")
	}
}

func TestVerifyCacheFlippedByteNeverHits(t *testing.T) {
	v, cert := warmVerifier(t, newTestCA(t), nil, "alice")
	for i := range cert.DER {
		flipped := bytes.Clone(cert.DER)
		flipped[i] ^= 0x01
		before := v.Stats().Cached
		uc, err := v.Verify(flipped)
		if v.Stats().Cached != before {
			t.Fatalf("byte %d flipped: cache hit", i)
		}
		if err == nil && !bytes.Equal(uc.DER, flipped) {
			t.Fatalf("byte %d flipped: returned another certificate", i)
		}
	}
}

func TestVerifyCacheVerifyForWrongUser(t *testing.T) {
	v, cert := warmVerifier(t, newTestCA(t), nil, "alice")
	for i := 0; i < 2; i++ {
		if _, err := v.VerifyFor(cert.DER, id.NewUserID("bob")); !errors.Is(err, ErrUserMismatch) {
			t.Fatalf("warm VerifyFor wrong user #%d: err = %v, want ErrUserMismatch", i, err)
		}
	}
	if _, err := v.VerifyFor(cert.DER, cert.User); err != nil {
		t.Errorf("warm VerifyFor right user: %v", err)
	}
	if v.Stats().Cached != 3 {
		t.Errorf("cached = %d, want 3 warm answers", v.Stats().Cached)
	}
}

func TestVerifyCacheCapHolds(t *testing.T) {
	ca := newTestCA(t)
	v, err := NewVerifier(ca.RootDER(), nil)
	if err != nil {
		t.Fatal(err)
	}
	alice := newTestIdentity(t, "alice")
	var ders [][]byte
	for i := 0; i < certCacheCap+100; i++ {
		cert, err := ca.Issue(alice.User, alice.Public()) // a fresh serial each time
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Verify(cert.DER); err != nil {
			t.Fatalf("Verify #%d: %v", i, err)
		}
		ders = append(ders, cert.DER)
	}
	if len(v.cache) > certCacheCap {
		t.Fatalf("cache holds %d entries, cap %d", len(v.cache), certCacheCap)
	}
	// The cache emptied once it was full: the first certificates went,
	// the newest are warm.
	before := v.Stats()
	if _, err := v.Verify(ders[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Verify(ders[len(ders)-1]); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats(); got.Full != before.Full+1 || got.Cached != before.Cached+1 {
		t.Errorf("stats %+v after %+v: want the oldest to miss and the newest to hit", got, before)
	}
}

func TestVerifyCacheConcurrentCRLUpdates(t *testing.T) {
	ca := newTestCA(t)
	v, err := NewVerifier(ca.RootDER(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var certs []*UserCert
	for _, h := range []string{"alice", "bob", "carol"} {
		ident := newTestIdentity(t, h)
		cert, err := ca.Issue(ident.User, ident.Public())
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, cert)
	}
	revoked := map[string]time.Time{certs[0].Serial: time.Now()}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := certs[i%len(certs)]
				uc, err := v.Verify(c.DER)
				if err != nil && !errors.Is(err, ErrRevoked) {
					t.Errorf("Verify: %v", err)
					return
				}
				if err == nil && uc.Serial != c.Serial {
					t.Errorf("Verify returned serial %s for %s", uc.Serial, c.Serial)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			if i%2 == 0 {
				v.UpdateCRL(revoked)
			} else {
				v.UpdateCRL(nil)
			}
		}
	}()
	wg.Wait()

	v.UpdateCRL(revoked)
	if _, err := v.Verify(certs[0].DER); !errors.Is(err, ErrRevoked) {
		t.Errorf("after the final sync: err = %v, want ErrRevoked", err)
	}
	for _, c := range certs[1:] {
		if _, err := v.Verify(c.DER); err != nil {
			t.Errorf("unrevoked %s: %v", c.User, err)
		}
	}
}

// TestVerifyCacheHitAllocBudget pins the warm path every relayed message
// takes: a hit allocates nothing.
func TestVerifyCacheHitAllocBudget(t *testing.T) {
	v, cert := warmVerifier(t, newTestCA(t), nil, "alice")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := v.VerifyFor(cert.DER, cert.User); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("cache hit: %.1f allocs, want 0", allocs)
	}
}
