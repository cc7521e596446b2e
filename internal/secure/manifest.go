package secure

import (
	"crypto/ed25519"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/media"
)

// ErrBadReport is returned to peers whose integrity reports contradict
// the provider's ground truth — under signed manifests, a lying
// reporter identifies itself.
var ErrBadReport = errors.New("secure: integrity report contradicts the signed manifest")

// ManifestAuthority signs per-segment integrity manifests in the
// media.SIM format, so the client-side verifier is one code path for
// both the paper's peer-established SIMs and the provider-signed
// manifests.
type ManifestAuthority struct {
	pub  ed25519.PublicKey
	priv ed25519.PrivateKey
}

// NewManifestAuthority generates a fresh manifest signing key.
func NewManifestAuthority() (*ManifestAuthority, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("secure: generate manifest authority: %w", err)
	}
	return &ManifestAuthority{pub: pub, priv: priv}, nil
}

// PublicKeyHex returns the verification key in the hex form policy
// delivers it to peers.
func (a *ManifestAuthority) PublicKeyHex() string { return hex.EncodeToString(a.pub) }

// Sign produces the signed manifest for a segment's IM hash.
func (a *ManifestAuthority) Sign(key media.SegmentKey, hash string) media.SIM {
	return media.SignSIM(a.priv, key, hash)
}

// VerifyManifest checks a hex manifest signature against a verification
// key.
func VerifyManifest(pub ed25519.PublicKey, key media.SegmentKey, hash, sig string) bool {
	return media.VerifySIM(pub, key, hash, sig)
}

// ManifestService implements signal.IMService with provider-signed
// ground truth: instead of establishing integrity metadata from peer
// report panels and arbitrating conflicts through CDN fetches (the
// paper's §V-B protocol, defense.IMChecker), the provider signs the IM
// of every segment it originates. A SIM is available for any segment
// immediately — there is no bootstrap window during which the first
// k reporters can collude — and a fetching peer verifies both the hash
// and the authority signature before any byte enters its cache or
// playback buffer.
type ManifestService struct {
	video *media.Video
	auth  *ManifestAuthority

	mu        sync.Mutex
	signed    map[media.SegmentKey]media.SIM
	blacklist map[string]bool
}

// NewManifestService builds the service for one video, generating a
// fresh manifest authority.
func NewManifestService(video *media.Video) (*ManifestService, error) {
	if video == nil {
		return nil, errors.New("secure: NewManifestService requires a video")
	}
	auth, err := NewManifestAuthority()
	if err != nil {
		return nil, err
	}
	return &ManifestService{
		video:     video,
		auth:      auth,
		signed:    make(map[media.SegmentKey]media.SIM),
		blacklist: make(map[string]bool),
	}, nil
}

// ManifestPublicKeyHex exposes the verification key; provider.Deploy
// copies it into the policy delivered to every peer.
func (m *ManifestService) ManifestPublicKeyHex() string { return m.auth.PublicKeyHex() }

// SIM returns the signed manifest for a segment, lazily computed from
// the provider's ground truth. ok is false only for segments the video
// does not contain.
func (m *ManifestService) SIM(key media.SegmentKey) (hash, sig string, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e, found := m.signed[key]; found {
		return e.Hash, e.Sig, true
	}
	if key.Video != m.video.ID {
		return "", "", false
	}
	data, err := m.video.SegmentData(key.Rendition, key.Index)
	if err != nil {
		return "", "", false
	}
	e := m.auth.Sign(key, media.IMHash(key, data))
	m.signed[key] = e
	return e.Hash, e.Sig, true
}

// Report checks a peer's integrity report against the signed ground
// truth. A contradicting report can only come from a peer whose CDN
// path is compromised or who is lying; either way it is blacklisted
// and disconnected.
func (m *ManifestService) Report(peerID string, key media.SegmentKey, hash string) error {
	truth, _, ok := m.SIM(key)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blacklist[peerID] {
		return ErrBadReport
	}
	if ok && truth != hash {
		m.blacklist[peerID] = true
		return ErrBadReport
	}
	return nil
}

// Blacklisted reports whether a peer has been banned for lying.
func (m *ManifestService) Blacklisted(peerID string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.blacklist[peerID]
}
