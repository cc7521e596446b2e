package pdnclient

import (
	"context"
	"sync"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// simWindow is how many consecutive segments' SIMs one GetSIM asks for.
// One signature check and one signaling round trip then cover that many
// segments; the session's first request sits on the start-up path and a
// wider window lengthens it, which is why this is not larger.
const simWindow = 16

// imHash computes a segment's integrity-metadata hash. Every hash the
// peer computes goes through here, so the meter is charged once each.
func (p *Peer) imHash(key media.SegmentKey, data []byte) string {
	p.cfg.Meter.OnHash(len(data))
	return media.IMHash(key, data)
}

// simCache is the verified run of SIM hashes a session last fetched:
// those of the segment at start and of the ones after it. A session owns
// one, so a rejoin — new server, perhaps a new manifest key — starts
// from an empty cache.
type simCache struct {
	mu     sync.Mutex
	start  media.SegmentKey
	hashes []string
}

func (c *simCache) lookup(key media.SegmentKey) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	off := key.Index - c.start.Index
	if key.Video != c.start.Video || key.Rendition != c.start.Rendition || off < 0 || off >= len(c.hashes) {
		return "", false
	}
	return c.hashes[off], true
}

func (c *simCache) store(start media.SegmentKey, hashes []string) {
	c.mu.Lock()
	c.start, c.hashes = start, hashes
	c.mu.Unlock()
}

// acceptSIM decides what the reply to a GetSIM for asked is worth under
// this session, caches the run of hashes it vouches for and returns
// asked's; or caches nothing and returns why. A reply that names another
// key or lists more than was asked for is refused before any signature
// is looked at; when the session carries a manifest verification key the
// one signature must cover asked and the whole list, so a compromised or
// impersonated server can forge, reorder, shift or truncate nothing. A
// reply with a bare Hash and no Window comes from a service that signs
// no windows: it is a run of one under the single-SIM signature, which
// the window format's domain tag keeps from standing in for a window's
// (or a window's for it).
func (s *session) acceptSIM(asked media.SegmentKey, resp signal.SIM) (hash, reason string) {
	hashes := resp.Window
	switch {
	case !resp.Found:
		return "", "no_sim"
	case resp.Key != asked || len(hashes) > simWindow:
		return "", "bad_sim_reply"
	case len(hashes) == 0:
		if s.manifestKey != nil && !media.VerifySIM(s.manifestKey, asked, resp.Hash, resp.Sig) {
			return "", "bad_sim_signature"
		}
		hashes = []string{resp.Hash}
	case s.manifestKey != nil && !media.VerifySIMWindow(s.manifestKey, asked, hashes, resp.Sig):
		return "", "bad_sim_signature"
	}
	s.sims.store(asked, hashes)
	return hashes[0], ""
}

// sim returns the verified SIM hash for key: from the session's cached
// run, else by fetching the run that begins at key. A run shorter than
// asked for is what a panel that has established no further yet sends;
// the first key past it simply asks again.
func (p *Peer) sim(ctx context.Context, s *session, key media.SegmentKey) (hash, reason string) {
	if hash, ok := s.sims.lookup(key); ok {
		return hash, ""
	}
	if s.sig == nil {
		return "", "no_sim"
	}
	p.metrics.simFetches.Inc()
	resp, err := s.sig.GetSIM(ctx, signal.GetSIM{Key: key, Count: simWindow})
	if err != nil {
		return "", "no_sim"
	}
	return s.acceptSIM(key, resp)
}

// verifySegment runs the integrity checks the segment's source and the
// session's policy call for. It returns "" when the segment passes them
// (or none applies), otherwise why it was rejected; and the segment's IM
// hash when a check computed it, "" when none had to.
//
// A P2P segment is checked against the server-signed integrity metadata
// when the policy requires IM checking, then against the CDN-served hash
// list when VerifyHashManifest loaded one; a CDN segment against the SIM
// when the provider signs manifests. A segment with no SIM established
// yet is rejected, forcing the CDN fallback whose IM report establishes
// it. Every segment is hashed and compared, however its SIM was come by.
func (p *Peer) verifySegment(ctx context.Context, s *session, key media.SegmentKey, data []byte, source string) (reason, hash string) {
	imHash := func() string {
		if hash == "" {
			hash = p.imHash(key, data)
		}
		return hash
	}
	checkSIM := s.policy.RequireIMChecking
	if source == SourceCDN {
		checkSIM = s.policy.ManifestPubKey != ""
	}
	if checkSIM && !p.cfg.InsecureNoVerify {
		want, reason := p.sim(ctx, s, key)
		if reason != "" {
			return reason, hash
		}
		if imHash() != want {
			return "sim_mismatch", hash
		}
	}
	if source == SourceP2P && p.cfg.VerifyHashManifest {
		p.mu.Lock()
		hashes := p.hashManifest
		p.mu.Unlock()
		// No list: the CDN serves none (a live asset, an older CDN).
		if want, listed := hashes[key.String()]; hashes != nil && (!listed || imHash() != want) {
			return "hash_list_mismatch", hash
		}
	}
	return "", hash
}
