package pdnclient

import (
	"context"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// imHash computes a segment's integrity-metadata hash. Every hash the
// peer computes goes through here, so the meter is charged once each.
func (p *Peer) imHash(key media.SegmentKey, data []byte) string {
	p.cfg.Meter.OnHash(len(data))
	return media.IMHash(key, data)
}

// verifySegment runs the integrity checks the segment's source and the
// session's policy call for. It returns "" when the segment passes them
// (or none applies), otherwise why it was rejected.
//
// A P2P segment is checked against the server-signed integrity metadata
// when the policy requires IM checking, then against the CDN-served hash
// list when VerifyHashManifest loaded one; a CDN segment against the SIM
// when the provider signs manifests. A segment with no SIM established
// yet is rejected, forcing the CDN fallback whose IM report establishes
// it; and when the session carries a manifest verification key the SIM's
// signature must check out too — a compromised or impersonated server
// cannot then forge hashes.
func (p *Peer) verifySegment(ctx context.Context, s *session, key media.SegmentKey, data []byte, source string) string {
	checkSIM := s.policy.RequireIMChecking
	if source == SourceCDN {
		checkSIM = s.policy.ManifestPubKey != ""
	}
	if checkSIM && !p.cfg.InsecureNoVerify {
		if s.sig == nil {
			return "no_sim"
		}
		resp, err := s.sig.GetSIM(ctx, signal.GetSIM{Key: key})
		switch {
		case err != nil || !resp.Found:
			return "no_sim"
		case s.manifestKey != nil && !media.VerifySIM(s.manifestKey, key, resp.Hash, resp.Sig):
			return "bad_sim_signature"
		case p.imHash(key, data) != resp.Hash:
			return "sim_mismatch"
		}
	}
	if source == SourceP2P && p.cfg.VerifyHashManifest {
		p.mu.Lock()
		hashes := p.hashManifest
		p.mu.Unlock()
		// No list: the CDN serves none (a live asset, an older CDN).
		if want, listed := hashes[key.String()]; hashes != nil && (!listed || p.imHash(key, data) != want) {
			return "hash_list_mismatch"
		}
	}
	return ""
}
