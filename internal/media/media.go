// Package media provides deterministic synthetic video sources for the
// pdnsec experiments: segment payload generation, bitrate ladders, and
// segment integrity hashing.
//
// The paper streamed a customized video through Wowza + CloudFront; for
// the reproduction, what matters is that segments are content-addressable
// so pollution is detectable automatically (the paper verified pollution
// visually from screen recordings). Every byte of a segment is a pure
// function of (video ID, rendition, segment index), so any peer — or any
// test — can independently recompute what a segment should contain: a
// one-line identity header, then an AES-128-CTR keystream keyed by the
// header's SHA-256.
package media

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strconv"
)

// Rendition is one rung of an adaptive-bitrate ladder.
type Rendition struct {
	// Name identifies the rendition in playlists, e.g. "720p".
	Name string `json:"name"`
	// Bandwidth is the nominal bitrate in bits per second.
	Bandwidth int `json:"bandwidth"`
	// SegmentBytes is the size of each media segment at this rendition.
	SegmentBytes int `json:"segment_bytes"`
}

// DefaultLadder mirrors a typical three-rung HLS ladder; segment sizes
// assume the paper's 10-second segment duration.
func DefaultLadder() []Rendition {
	return []Rendition{
		{Name: "360p", Bandwidth: 800_000, SegmentBytes: 1_000_000},
		{Name: "720p", Bandwidth: 2_400_000, SegmentBytes: 3_000_000},
		{Name: "1080p", Bandwidth: 4_800_000, SegmentBytes: 6_000_000},
	}
}

// Video describes one synthetic video asset.
type Video struct {
	// ID is the stable identifier, e.g. "bbb" or "live/main".
	ID string `json:"id"`
	// Renditions is the bitrate ladder, lowest first.
	Renditions []Rendition `json:"renditions"`
	// Segments is the total number of segments for VOD assets; live
	// streams treat this as the rolling horizon and wrap.
	Segments int `json:"segments"`
	// SegmentDuration is the playback duration of each segment in
	// seconds (the paper uses 10-second segments).
	SegmentDuration float64 `json:"segment_duration"`
	// Live marks endless (live-window) assets.
	Live bool `json:"live"`
}

// NewVOD constructs a VOD asset with the default ladder.
func NewVOD(id string, segments int) *Video {
	return &Video{
		ID:              id,
		Renditions:      DefaultLadder(),
		Segments:        segments,
		SegmentDuration: 10,
	}
}

// NewLive constructs a live asset with the default ladder and the given
// live-window horizon.
func NewLive(id string, horizon int) *Video {
	return &Video{
		ID:              id,
		Renditions:      DefaultLadder(),
		Segments:        horizon,
		SegmentDuration: 10,
		Live:            true,
	}
}

// Rendition returns the rendition with the given name.
func (v *Video) Rendition(name string) (Rendition, bool) {
	for _, r := range v.Renditions {
		if r.Name == name {
			return r, true
		}
	}
	return Rendition{}, false
}

// SegmentData deterministically generates the payload of one segment.
// The payload begins with a parseable header (so tests and the pollution
// verifier can identify a segment from its bytes) followed by
// pseudo-random filler derived from the segment identity.
func (v *Video) SegmentData(rendition string, index int) ([]byte, error) {
	r, ok := v.Rendition(rendition)
	if !ok {
		return nil, fmt.Errorf("media: video %q has no rendition %q", v.ID, rendition)
	}
	if index < 0 || (!v.Live && index >= v.Segments) {
		return nil, fmt.Errorf("media: video %q segment %d out of range [0,%d)", v.ID, index, v.Segments)
	}
	return generate(v.ID, rendition, index, r.SegmentBytes), nil
}

// segmentMagic marks the start of a synthetic segment payload.
const segmentMagic = "PDNSEG1\x00"

// generate produces size bytes (at least 64): the identity header, cut
// at size if it is longer, then filler. The filler is the AES-128-CTR
// keystream whose key and initial counter block are the first and last
// 16 bytes of sha256(header), so it is a fixed function of the identity
// that the standard library's AES produces at cipher speed.
func generate(videoID, rendition string, index, size int) []byte {
	if size < 64 {
		size = 64
	}
	header := fmt.Sprintf("%s%s|%s|%d\n", segmentMagic, videoID, rendition, index)
	out := make([]byte, size)
	n := copy(out, header)
	seed := sha256.Sum256([]byte(header))
	block, err := aes.NewCipher(seed[:16])
	if err != nil {
		panic(err) // unreachable: a 16-byte key is always valid
	}
	// out is zero after the header, so XOR leaves the bare keystream.
	cipher.NewCTR(block, seed[16:]).XORKeyStream(out[n:], out[n:])
	return out
}

// ParseHeader extracts the (videoID, rendition, index) identity from a
// segment payload, reporting ok=false for foreign or polluted prefixes.
func ParseHeader(payload []byte) (videoID, rendition string, index int, ok bool) {
	if len(payload) < len(segmentMagic) || string(payload[:len(segmentMagic)]) != segmentMagic {
		return "", "", 0, false
	}
	rest := payload[len(segmentMagic):]
	// header line ends at '\n'
	end := -1
	for i, b := range rest {
		if b == '\n' {
			end = i
			break
		}
		if i > 256 {
			break
		}
	}
	if end < 0 {
		return "", "", 0, false
	}
	line := string(rest[:end])
	// split into videoID|rendition|index, from the right to allow '|' in IDs
	lastSep := -1
	midSep := -1
	for i := len(line) - 1; i >= 0; i-- {
		if line[i] == '|' {
			if lastSep == -1 {
				lastSep = i
			} else {
				midSep = i
				break
			}
		}
	}
	if lastSep < 0 || midSep < 0 {
		return "", "", 0, false
	}
	idx, err := strconv.Atoi(line[lastSep+1:])
	if err != nil {
		return "", "", 0, false
	}
	return line[:midSep], line[midSep+1 : lastSep], idx, true
}

// Verify recomputes the expected payload for the claimed identity and
// reports whether data matches exactly. This is the ground-truth check
// the experiments use to decide whether pollution reached a victim.
func (v *Video) Verify(rendition string, index int, data []byte) bool {
	want, err := v.SegmentData(rendition, index)
	if err != nil {
		return false
	}
	return bytes.Equal(want, data) // a length mismatch is unequal too
}

// Hash returns the hex SHA-256 of a segment payload — the integrity
// metadata (IM) primitive used by the paper's peer-assisted defense.
func Hash(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// IMHash computes the integrity metadata for a segment: the hash of the
// tuple (content, video identifier, rendition, position), as §V-B
// specifies — binding position and identity defeats cross-segment and
// cross-video replay of a recorded (segment, SIM) pair.
func IMHash(key SegmentKey, data []byte) string {
	h := sha256.New()
	h.Write(data)
	h.Write([]byte{0})
	h.Write([]byte(key.String()))
	return hex.EncodeToString(h.Sum(nil))
}

// SIM is signed integrity metadata: a segment's IM hash and the hex
// ed25519 signature over "video/rendition/index|hash". The paper's
// peer-established SIMs and the provider-signed manifests are this one
// format from one service (defense.IMChecker, built as a panel or as an
// authority), so a client verifies either with VerifySIM.
type SIM struct {
	Hash string
	Sig  string
}

func simMessage(key SegmentKey, hash string) []byte {
	return []byte(key.String() + "|" + hash)
}

// SignSIM signs a segment's IM hash.
func SignSIM(priv ed25519.PrivateKey, key SegmentKey, hash string) SIM {
	return SIM{Hash: hash, Sig: hex.EncodeToString(ed25519.Sign(priv, simMessage(key, hash)))}
}

// VerifySIM checks a hex SIM signature against a verification key.
func VerifySIM(pub ed25519.PublicKey, key SegmentKey, hash, sig string) bool {
	raw, err := hex.DecodeString(sig)
	if err != nil {
		return false
	}
	return ed25519.Verify(pub, simMessage(key, hash), raw)
}

// simWindowTag opens every signed window message. No single-SIM message
// begins with it — those begin with a video identifier, and a NUL byte
// is in none a playlist can carry — so a signature made for one format
// never verifies as the other.
const simWindowTag = "\x00pdnsec-sim-window\x00"

// simWindowMessage is what a window signature covers: the tag, the key
// of the first segment, and the hashes in order, each length-prefixed so
// no two (start, list) pairs share an encoding — a panel's hashes are
// strings peers reported, not necessarily hex.
func simWindowMessage(start SegmentKey, hashes []string) []byte {
	k := start.String()
	n := len(simWindowTag) + len(k) + 2*binary.MaxVarintLen64
	for _, h := range hashes {
		n += len(h) + binary.MaxVarintLen64
	}
	msg := make([]byte, 0, n)
	msg = append(msg, simWindowTag...)
	msg = binary.AppendUvarint(msg, uint64(len(k)))
	msg = append(msg, k...)
	msg = binary.AppendUvarint(msg, uint64(len(hashes)))
	for _, h := range hashes {
		msg = binary.AppendUvarint(msg, uint64(len(h)))
		msg = append(msg, h...)
	}
	return msg
}

// SignSIMWindow signs a run of IM hashes — of the segment at start and
// the ones that follow it, in order — with one hex ed25519 signature.
func SignSIMWindow(priv ed25519.PrivateKey, start SegmentKey, hashes []string) string {
	return hex.EncodeToString(ed25519.Sign(priv, simWindowMessage(start, hashes)))
}

// VerifySIMWindow checks a hex window signature: it holds only for the
// same start key and the same hashes in the same order.
func VerifySIMWindow(pub ed25519.PublicKey, start SegmentKey, hashes []string, sig string) bool {
	raw, err := hex.DecodeString(sig)
	if err != nil {
		return false
	}
	return ed25519.Verify(pub, simWindowMessage(start, hashes), raw)
}

// SegmentKey names a segment uniquely across videos and renditions.
type SegmentKey struct {
	Video     string `json:"video"`
	Rendition string `json:"rendition"`
	Index     int    `json:"index"`
}

// String formats the key as video/rendition/index.
func (k SegmentKey) String() string {
	return k.Video + "/" + k.Rendition + "/" + strconv.Itoa(k.Index)
}
