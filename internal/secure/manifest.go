package secure

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
)

// VerifyManifest checks a hex manifest signature — one segment's SIM —
// against a verification key.
func VerifyManifest(pub ed25519.PublicKey, key media.SegmentKey, hash, sig string) bool {
	return defense.VerifySIM(pub, key, hash, sig)
}

// NewManifestService builds a secure-profile integrity service for a
// video with no origin to read from: the one defense.IMChecker, with the
// provider as its trust source, signing the IM of any segment of video
// from bytes it synthesizes itself, and advertising the verification key
// provider.Deploy stamps into the policy. analyzer.NewTestbed no longer
// uses it: its authority reads the segments its CDN origin already holds
// (defense.NewIMAuthority over cdn.Server.Segment), so no segment is
// generated twice. Standalone callers — probes and tests that stand up a
// signaling server without a CDN — still do.
func NewManifestService(video *media.Video) (*defense.IMChecker, error) {
	if video == nil {
		return nil, errors.New("secure: NewManifestService requires a video")
	}
	return defense.NewIMAuthority(func(key media.SegmentKey) ([]byte, error) {
		if key.Video != video.ID {
			return nil, fmt.Errorf("secure: manifest covers %q, not %q", video.ID, key.Video)
		}
		return video.SegmentData(key.Rendition, key.Index)
	})
}
