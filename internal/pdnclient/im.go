package pdnclient

import (
	"context"
	"crypto/ed25519"
	"encoding/hex"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// reportIM submits integrity metadata for a CDN-fetched segment — the
// client half of the §V-B peer-assisted integrity-checking defense. A
// peer only ever reports IMs for segments it downloaded directly from
// the CDN; P2P-delivered segments are verified instead.
func (p *Peer) reportIM(key media.SegmentKey, data []byte) {
	p.mu.Lock()
	sig := p.sig
	p.mu.Unlock()
	if sig == nil {
		return
	}
	if p.cfg.Meter != nil {
		p.cfg.Meter.OnHash(len(data))
	}
	sig.ReportIM(signal.IMReport{Key: key, Hash: media.IMHash(key, data)})
}

// manifestKey parses the policy's hex ed25519 manifest verification
// key, or nil when the provider signs no manifests.
func (p *Peer) manifestKey() ed25519.PublicKey {
	hexKey := p.Policy().ManifestPubKey
	if hexKey == "" {
		return nil
	}
	raw, err := hex.DecodeString(hexKey)
	if err != nil || len(raw) != ed25519.PublicKeySize {
		return nil
	}
	return ed25519.PublicKey(raw)
}

// verifySIM checks a segment against the server-signed integrity
// metadata. Unverifiable segments (no SIM established yet) are
// rejected, forcing CDN fallback — which in turn produces the IM
// report that establishes the SIM. When the policy carries a manifest
// verification key, the SIM's ed25519 signature must also check out —
// a compromised or impersonated server cannot then forge hashes.
func (p *Peer) verifySIM(ctx context.Context, key media.SegmentKey, data []byte) bool {
	p.mu.Lock()
	sig := p.sig
	p.mu.Unlock()
	if sig == nil {
		return false
	}
	resp, err := sig.GetSIM(ctx, signal.GetSIM{Key: key})
	if err != nil || !resp.Found {
		return false
	}
	if pub := p.manifestKey(); pub != nil && !media.VerifySIM(pub, key, resp.Hash, resp.Sig) {
		return false
	}
	if p.cfg.Meter != nil {
		p.cfg.Meter.OnHash(len(data))
	}
	return media.IMHash(key, data) == resp.Hash
}
