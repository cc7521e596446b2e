package secure

import (
	"crypto/ed25519"
	"errors"
	"fmt"

	"github.com/stealthy-peers/pdnsec/internal/defense"
	"github.com/stealthy-peers/pdnsec/internal/media"
)

// VerifyManifest checks a hex manifest signature against a verification
// key.
func VerifyManifest(pub ed25519.PublicKey, key media.SegmentKey, hash, sig string) bool {
	return media.VerifySIM(pub, key, hash, sig)
}

// NewManifestService builds the integrity service of a secure-profile
// deployment: the one defense.IMChecker, with the provider as its trust
// source. It signs the IM of every segment of video from ground truth,
// so a SIM exists for any of them immediately, and advertises the
// verification key provider.Deploy stamps into the policy — a fetching
// peer checks hash and signature before any byte enters its cache or
// playback buffer, whichever source served it.
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
