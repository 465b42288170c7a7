// Package pki implements the public-key infrastructure used by the SOS
// one-time infrastructure bootstrap (paper §IV, Fig. 2a). A certificate
// authority issues X.509 certificates that bind a user's 10-byte unique
// identifier to their ECDSA P-256 public key. Devices carry their own
// certificate plus the CA root; during opportunistic encounters they
// exchange and verify certificates without any infrastructure.
//
// The paper's stated limitations are modelled faithfully: revocation,
// certificate renewal, and CA-root updates all require connectivity, so
// they are only reachable through the cloud package.
package pki

import (
	"bytes"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"sos/internal/id"
)

// Default certificate lifetimes. Leaf certificates are deliberately short
// lived: the paper notes expired certificates must be replenished over the
// Internet, and a short lifetime makes that path meaningful in simulation.
const (
	DefaultRootValidity = 10 * 365 * 24 * time.Hour
	DefaultLeafValidity = 90 * 24 * time.Hour
)

// Errors reported by certificate verification.
var (
	ErrRevoked      = errors.New("pki: certificate revoked")
	ErrExpired      = errors.New("pki: certificate expired or not yet valid")
	ErrUntrusted    = errors.New("pki: certificate does not chain to a trusted root")
	ErrNotECDSA     = errors.New("pki: certificate public key is not ECDSA")
	ErrBadUserID    = errors.New("pki: certificate common name is not a valid user identifier")
	ErrUserMismatch = errors.New("pki: certificate user does not match expected user")
)

// UserCert is a verified, parsed user certificate: the binding of a UserID
// to an ECDSA public key, vouched for by the CA. A Verifier hands the same
// UserCert to every caller that presents the same certificate, so holders
// must treat it, and everything it points to, as read-only.
type UserCert struct {
	User   id.UserID
	Key    *ecdsa.PublicKey
	Cert   *x509.Certificate
	DER    []byte
	Serial string
}

// CA is the AlleyOop Social certificate authority. It lives "in the cloud":
// devices talk to it only during signup and maintenance windows.
type CA struct {
	mu       sync.Mutex
	key      *ecdsa.PrivateKey
	cert     *x509.Certificate
	certDER  []byte
	now      func() time.Time
	entropy  io.Reader
	validity time.Duration
	nextSer  int64
	revoked  map[string]time.Time // serial -> revocation time
	issued   map[id.UserID]string // user -> latest serial
}

// CAOption configures a CA.
type CAOption func(*CA)

// WithClock injects a time source, letting simulations drive expiry from
// virtual time.
func WithClock(now func() time.Time) CAOption {
	return func(ca *CA) { ca.now = now }
}

// WithEntropy injects the randomness source used for key generation.
func WithEntropy(r io.Reader) CAOption {
	return func(ca *CA) { ca.entropy = r }
}

// WithLeafValidity overrides the lifetime of issued user certificates.
func WithLeafValidity(d time.Duration) CAOption {
	return func(ca *CA) { ca.validity = d }
}

// NewCA creates a certificate authority with a fresh self-signed root.
func NewCA(name string, opts ...CAOption) (*CA, error) {
	ca := &CA{
		now:      time.Now,
		entropy:  rand.Reader,
		validity: DefaultLeafValidity,
		nextSer:  2, // serial 1 is the root
		revoked:  make(map[string]time.Time),
		issued:   make(map[id.UserID]string),
	}
	for _, opt := range opts {
		opt(ca)
	}

	key, err := ecdsa.GenerateKey(elliptic.P256(), ca.entropy)
	if err != nil {
		return nil, fmt.Errorf("pki: generating CA key: %w", err)
	}
	notBefore := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: name, Organization: []string{"AlleyOop Social"}},
		NotBefore:             notBefore,
		NotAfter:              notBefore.Add(DefaultRootValidity),
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageCRLSign,
		BasicConstraintsValid: true,
		IsCA:                  true,
		MaxPathLen:            0,
		MaxPathLenZero:        true,
	}
	der, err := x509.CreateCertificate(ca.entropy, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("pki: creating root certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing root certificate: %w", err)
	}
	ca.key = key
	ca.cert = cert
	ca.certDER = der
	return ca, nil
}

// Root returns the parsed root certificate.
func (ca *CA) Root() *x509.Certificate { return ca.cert }

// Key returns the CA signing key so operators can persist it (sosctl
// ca-init); handle with care.
func (ca *CA) Key() *ecdsa.PrivateKey { return ca.key }

// Load reconstructs a CA from a stored root certificate and private key.
// Issued serials resume from a random 62-bit offset so reloaded CAs never
// collide with serials issued before the reload.
func Load(certDER []byte, key *ecdsa.PrivateKey, opts ...CAOption) (*CA, error) {
	cert, err := x509.ParseCertificate(certDER)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing stored root: %w", err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok || !pub.Equal(&key.PublicKey) {
		return nil, errors.New("pki: stored key does not match root certificate")
	}
	ca := &CA{
		now:      time.Now,
		entropy:  rand.Reader,
		validity: DefaultLeafValidity,
		revoked:  make(map[string]time.Time),
		issued:   make(map[id.UserID]string),
		key:      key,
		cert:     cert,
		certDER:  append([]byte(nil), certDER...),
	}
	for _, opt := range opts {
		opt(ca)
	}
	var offset [8]byte
	if _, err := io.ReadFull(ca.entropy, offset[:]); err != nil {
		return nil, fmt.Errorf("pki: reading serial offset: %w", err)
	}
	ca.nextSer = int64(binary.BigEndian.Uint64(offset[:])>>2) | (1 << 32)
	return ca, nil
}

// RootDER returns the DER encoding of the root certificate, which devices
// pin during signup.
func (ca *CA) RootDER() []byte {
	out := make([]byte, len(ca.certDER))
	copy(out, ca.certDER)
	return out
}

// Issue signs a certificate binding user to pub. The certificate's common
// name is the identifier's canonical display form, mirroring how AlleyOop
// Social embeds the unique user-identifier in issued certificates.
func (ca *CA) Issue(user id.UserID, pub *ecdsa.PublicKey) (*UserCert, error) {
	if user.IsZero() {
		return nil, fmt.Errorf("pki: refusing to certify the zero user identifier")
	}
	if pub == nil {
		return nil, fmt.Errorf("pki: refusing to certify a nil public key")
	}
	ca.mu.Lock()
	defer ca.mu.Unlock()

	serial := big.NewInt(ca.nextSer)
	ca.nextSer++
	notBefore := ca.now()
	tmpl := &x509.Certificate{
		SerialNumber: serial,
		Subject:      pkix.Name{CommonName: user.String(), Organization: []string{"AlleyOop Social User"}},
		NotBefore:    notBefore,
		NotAfter:     notBefore.Add(ca.validity),
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageKeyAgreement,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(ca.entropy, tmpl, ca.cert, pub, ca.key)
	if err != nil {
		return nil, fmt.Errorf("pki: signing user certificate: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing issued certificate: %w", err)
	}
	ca.issued[user] = serial.String()
	return &UserCert{User: user, Key: pub, Cert: cert, DER: der, Serial: serial.String()}, nil
}

// Revoke marks a certificate serial as revoked. Devices only learn about
// revocations when they next reach the cloud (paper §IV limitation).
func (ca *CA) Revoke(serial string) {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	if _, done := ca.revoked[serial]; !done {
		ca.revoked[serial] = ca.now()
	}
}

// RevokeUser revokes the latest certificate issued to user, if any, and
// reports whether one was found.
func (ca *CA) RevokeUser(user id.UserID) bool {
	ca.mu.Lock()
	serial, ok := ca.issued[user]
	ca.mu.Unlock()
	if !ok {
		return false
	}
	ca.Revoke(serial)
	return true
}

// CRL returns the current revocation list as serial -> revocation time.
func (ca *CA) CRL() map[string]time.Time {
	ca.mu.Lock()
	defer ca.mu.Unlock()
	out := make(map[string]time.Time, len(ca.revoked))
	for s, at := range ca.revoked {
		out[s] = at
	}
	return out
}

// certCacheCap bounds a Verifier's cache of verified certificates. A
// device meets and relays for far fewer distinct authors than this
// between two CRL syncs; a full cache is emptied and refilled.
const certCacheCap = 1024

// Verifier validates peer certificates on a device. It holds the pinned CA
// root and the device's last-synced revocation list.
//
// Every certificate that passes is cached by its exact DER bytes, so a
// certificate met again (the same author's next message, the same peer's
// next handshake) skips the parse and the chain build. The chain result
// depends only on the DER, the pinned root and the time, and the root is
// fixed at construction; a hit therefore re-checks only what can change:
// the revocation list and the leaf's and root's validity windows at the
// current time. A hit that fails a re-check takes the full path, which
// reports the same error a cold verify would.
type Verifier struct {
	mu       sync.RWMutex
	roots    *x509.CertPool
	rootFrom time.Time // the pinned root's validity window
	rootTo   time.Time
	crl      map[string]time.Time
	now      func() time.Time

	cache        map[string]*UserCert // DER -> verified form
	cached, full atomic.Uint64
}

// VerifierStats counts certificate verifications by the path they took.
type VerifierStats struct {
	Cached uint64 // answered from the cache after the CRL and validity re-check
	Full   uint64 // parsed and chain-verified, whatever the result
}

// NewVerifier builds a verifier trusting the given DER-encoded root. The
// clock may be nil, in which case wall time is used.
func NewVerifier(rootDER []byte, now func() time.Time) (*Verifier, error) {
	root, err := x509.ParseCertificate(bytes.Clone(rootDER))
	if err != nil {
		return nil, fmt.Errorf("pki: parsing pinned root: %w", err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(root)
	if now == nil {
		now = time.Now
	}
	return &Verifier{
		roots:    pool,
		rootFrom: root.NotBefore,
		rootTo:   root.NotAfter,
		crl:      make(map[string]time.Time),
		now:      now,
		cache:    make(map[string]*UserCert),
	}, nil
}

// UpdateCRL replaces the verifier's revocation list. Only the cloud calls
// this; an offline device keeps trusting certificates revoked after its
// last sync, exactly the limitation the paper describes.
func (v *Verifier) UpdateCRL(crl map[string]time.Time) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.crl = make(map[string]time.Time, len(crl))
	for s, at := range crl {
		v.crl[s] = at
	}
}

// CRLSize returns the number of revocation entries currently held.
func (v *Verifier) CRLSize() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.crl)
}

// Stats returns the verification counters.
func (v *Verifier) Stats() VerifierStats {
	return VerifierStats{Cached: v.cached.Load(), Full: v.full.Load()}
}

// Verify parses and validates a DER certificate: it must chain to the
// pinned root, be within its validity window, not appear on the synced
// revocation list, carry an ECDSA public key, and name a well-formed user
// identifier.
//
// The returned certificate owns a private copy of der and may be shared
// with every later caller that presents the same bytes: treat it as
// read-only.
func (v *Verifier) Verify(der []byte) (*UserCert, error) {
	v.mu.RLock()
	uc := v.cache[string(der)]
	if uc != nil && v.stillValidLocked(uc) {
		v.mu.RUnlock()
		v.cached.Add(1)
		return uc, nil
	}
	v.mu.RUnlock()

	v.full.Add(1)
	uc, err := v.verifyFull(bytes.Clone(der))
	if err != nil {
		return nil, err
	}
	v.mu.Lock()
	if len(v.cache) >= certCacheCap {
		clear(v.cache)
	}
	v.cache[string(uc.DER)] = uc
	v.mu.Unlock()
	return uc, nil
}

// stillValidLocked re-runs, for a cached certificate, the checks whose
// answer can change after it was verified: the revocation list and the
// leaf's and root's validity windows at the current time. Callers hold
// v.mu.
func (v *Verifier) stillValidLocked(uc *UserCert) bool {
	if _, revoked := v.crl[uc.Serial]; revoked {
		return false
	}
	now := v.now()
	return !now.Before(uc.Cert.NotBefore) && !now.After(uc.Cert.NotAfter) &&
		!now.Before(v.rootFrom) && !now.After(v.rootTo)
}

// verifyFull runs every check on der, which the returned certificate
// keeps: callers pass a copy they own.
func (v *Verifier) verifyFull(der []byte) (*UserCert, error) {
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("pki: parsing certificate: %w", err)
	}

	v.mu.RLock()
	_, revoked := v.crl[cert.SerialNumber.String()]
	roots := v.roots
	now := v.now()
	v.mu.RUnlock()

	if revoked {
		return nil, fmt.Errorf("%w: serial %s", ErrRevoked, cert.SerialNumber)
	}
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return nil, fmt.Errorf("%w: valid %s to %s, now %s",
			ErrExpired, cert.NotBefore.Format(time.RFC3339), cert.NotAfter.Format(time.RFC3339), now.Format(time.RFC3339))
	}
	if _, err := cert.Verify(x509.VerifyOptions{
		Roots:       roots,
		CurrentTime: now,
		KeyUsages:   []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	}); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUntrusted, err)
	}
	pub, ok := cert.PublicKey.(*ecdsa.PublicKey)
	if !ok {
		return nil, fmt.Errorf("%w: got %T", ErrNotECDSA, cert.PublicKey)
	}
	user, err := id.ParseUserID(cert.Subject.CommonName)
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrBadUserID, cert.Subject.CommonName)
	}
	return &UserCert{
		User:   user,
		Key:    pub,
		Cert:   cert,
		DER:    der,
		Serial: cert.SerialNumber.String(),
	}, nil
}

// VerifyFor validates der and additionally requires it to belong to want.
// Like Verify, it returns a shared, read-only certificate.
// Forwarded originator certificates are checked this way (paper Fig. 3b:
// Bob forwards Alice's certificate alongside her message).
func (v *Verifier) VerifyFor(der []byte, want id.UserID) (*UserCert, error) {
	uc, err := v.Verify(der)
	if err != nil {
		return nil, err
	}
	if uc.User != want {
		return nil, fmt.Errorf("%w: certificate names %s, want %s", ErrUserMismatch, uc.User, want)
	}
	return uc, nil
}
