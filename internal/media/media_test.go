package media

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"strings"
	"testing"
	"testing/quick"
)

func TestSegmentDataDeterministic(t *testing.T) {
	v := NewVOD("bbb", 10)
	a, err := v.SegmentData("720p", 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := v.SegmentData("720p", 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("segment generation not deterministic")
	}
	if len(a) != 3_000_000 {
		t.Fatalf("len = %d, want 3000000", len(a))
	}
}

func TestSegmentDataDistinct(t *testing.T) {
	v := NewVOD("bbb", 10)
	a, _ := v.SegmentData("720p", 1)
	b, _ := v.SegmentData("720p", 2)
	c, _ := v.SegmentData("360p", 1)
	if bytes.Equal(a[:64], b[:64]) {
		t.Fatal("segments 1 and 2 share a prefix")
	}
	if bytes.Equal(a[64:256], b[64:256]) || bytes.Equal(a[64:256], c[64:256]) {
		t.Fatal("distinct segments should have distinct bodies")
	}
	w := NewVOD("other", 10)
	d, _ := w.SegmentData("720p", 1)
	if bytes.Equal(a[64:256], d[64:256]) {
		t.Fatal("distinct videos should have distinct bodies")
	}
}

func TestSegmentDataErrors(t *testing.T) {
	v := NewVOD("bbb", 5)
	if _, err := v.SegmentData("999p", 0); err == nil {
		t.Fatal("unknown rendition should error")
	}
	if _, err := v.SegmentData("720p", 5); err == nil {
		t.Fatal("out-of-range index should error")
	}
	if _, err := v.SegmentData("720p", -1); err == nil {
		t.Fatal("negative index should error")
	}
}

func TestLiveWraps(t *testing.T) {
	v := NewLive("ch1", 6)
	if _, err := v.SegmentData("720p", 1000); err != nil {
		t.Fatalf("live assets have unbounded indices: %v", err)
	}
}

func TestParseHeaderRoundTrip(t *testing.T) {
	v := NewVOD("my/video|weird", 4)
	data, err := v.SegmentData("1080p", 2)
	if err != nil {
		t.Fatal(err)
	}
	id, rend, idx, ok := ParseHeader(data)
	if !ok {
		t.Fatal("ParseHeader failed")
	}
	if id != "my/video|weird" || rend != "1080p" || idx != 2 {
		t.Fatalf("got %q %q %d", id, rend, idx)
	}
}

func TestParseHeaderRejectsGarbage(t *testing.T) {
	for _, bad := range [][]byte{
		nil,
		[]byte("short"),
		[]byte("PDNSEG1\x00noseparators\n"),
		[]byte("PDNSEG1\x00a|b|notanum\n"),
		bytes.Repeat([]byte{0xff}, 128),
		[]byte("PDNSEG1\x00" + strings.Repeat("x", 400)), // no newline in window
	} {
		if _, _, _, ok := ParseHeader(bad); ok {
			t.Fatalf("ParseHeader accepted %q", bad)
		}
	}
}

func TestVerify(t *testing.T) {
	v := NewVOD("bbb", 4)
	data, _ := v.SegmentData("360p", 0)
	if !v.Verify("360p", 0, data) {
		t.Fatal("Verify rejected authentic segment")
	}
	polluted := append([]byte(nil), data...)
	polluted[len(polluted)/2] ^= 0xff
	if v.Verify("360p", 0, polluted) {
		t.Fatal("Verify accepted polluted segment")
	}
	if v.Verify("360p", 1, data) {
		t.Fatal("Verify accepted misplaced segment (replay)")
	}
	if v.Verify("360p", 0, data[:len(data)-1]) {
		t.Fatal("Verify accepted truncated segment")
	}
}

func TestHashStable(t *testing.T) {
	if Hash([]byte("x")) != Hash([]byte("x")) {
		t.Fatal("Hash not stable")
	}
	if Hash([]byte("x")) == Hash([]byte("y")) {
		t.Fatal("Hash collision on trivial input")
	}
	if len(Hash(nil)) != 64 {
		t.Fatalf("hex sha256 should be 64 chars, got %d", len(Hash(nil)))
	}
}

func TestRenditionLookup(t *testing.T) {
	v := NewVOD("bbb", 1)
	r, ok := v.Rendition("720p")
	if !ok || r.SegmentBytes != 3_000_000 {
		t.Fatalf("Rendition(720p) = %+v %v", r, ok)
	}
	if _, ok := v.Rendition("nope"); ok {
		t.Fatal("unknown rendition should not resolve")
	}
}

func TestSegmentKeyString(t *testing.T) {
	k := SegmentKey{Video: "v", Rendition: "720p", Index: 7}
	if k.String() != "v/720p/7" {
		t.Fatalf("got %q", k.String())
	}
}

// TestSIMSignVerify pins the one signed-integrity-metadata format both
// IM services emit: ed25519 over "video/rendition/index|hash", hex.
func TestSIMSignVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	key := SegmentKey{Video: "v", Rendition: "720p", Index: 7}
	sim := SignSIM(priv, key, "abc123")
	if sim.Hash != "abc123" {
		t.Fatalf("SIM hash = %q", sim.Hash)
	}
	raw, err := hex.DecodeString(sim.Sig)
	if err != nil || !ed25519.Verify(pub, []byte("v/720p/7|abc123"), raw) {
		t.Fatalf("signature is not ed25519 over the documented message (%v)", err)
	}
	next := SegmentKey{Video: "v", Rendition: "720p", Index: 8}
	for name, ok := range map[string]bool{
		"genuine":       VerifySIM(pub, key, sim.Hash, sim.Sig),
		"other key":     !VerifySIM(other, key, sim.Hash, sim.Sig),
		"other hash":    !VerifySIM(pub, key, "abc124", sim.Sig),
		"other segment": !VerifySIM(pub, next, sim.Hash, sim.Sig),
		"truncated sig": !VerifySIM(pub, key, sim.Hash, sim.Sig[:len(sim.Sig)-2]),
		"non-hex sig":   !VerifySIM(pub, key, sim.Hash, "zz"),
		"empty sig":     !VerifySIM(pub, key, sim.Hash, ""),
	} {
		if !ok {
			t.Errorf("%s: wrong verdict", name)
		}
	}
}

// TestSIMWindowSignVerify: a window signature binds the start key and
// the ordered hash list, and is no use as a single-SIM signature (nor
// the reverse) under the same key.
func TestSIMWindowSignVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	key := SegmentKey{Video: "v", Rendition: "720p", Index: 7}
	next := SegmentKey{Video: "v", Rendition: "720p", Index: 8}
	hashes := []string{"aa", "bb", "cc"}
	sig := SignSIMWindow(priv, key, hashes)
	single := SignSIM(priv, key, "aa")
	for name, ok := range map[string]bool{
		"genuine":           VerifySIMWindow(pub, key, hashes, sig),
		"shifted start":     !VerifySIMWindow(pub, next, hashes, sig),
		"truncated list":    !VerifySIMWindow(pub, key, hashes[:2], sig),
		"reordered list":    !VerifySIMWindow(pub, key, []string{"bb", "aa", "cc"}, sig),
		"flipped hash":      !VerifySIMWindow(pub, key, []string{"aa", "bb", "cd"}, sig),
		"moved boundary":    !VerifySIMWindow(pub, key, []string{"aab", "b", "cc"}, sig),
		"non-hex sig":       !VerifySIMWindow(pub, key, hashes, "zz"),
		"window as single":  !VerifySIM(pub, key, "aa", SignSIMWindow(priv, key, []string{"aa"})),
		"single as window":  !VerifySIMWindow(pub, key, []string{"aa"}, single.Sig),
		"single still good": VerifySIM(pub, key, "aa", single.Sig),
	} {
		if !ok {
			t.Errorf("%s: wrong verdict", name)
		}
	}
}

// TestGenerateGoldenDigests pins the generated bytes themselves: every
// oracle downstream (Tables I–IV, the defense matrix, chaos logs)
// assumes a segment's content is a fixed function of its identity. The
// digests were taken from the hash.Hash-per-block generator before it
// became one Sum256 per block.
func TestGenerateGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		video, rendition string
		index, size, n   int
		digest           string
	}{
		{"bbb", "360p", 0, 256 << 10, 256 << 10, "aa4cf4e02989692ed1c5f835863f7d629e2487411e8d00cc8198b73e563bde1e"},
		// Not a multiple of the 32-byte block: the last block is cut.
		{"live/main", "720p", 41, 1000, 1000, "6f6938c40959f2f5fc80a6db55b3ae420b480282613f6d36445a4e3bb7bb33aa"},
		// Below the floor: clamped to 64 bytes.
		{"tiny", "t", 3, 1, 64, "0d43e96d1917b234cc5758431044789e282d88daaee8ad3fd92e1c9a1b063b84"},
	} {
		data := generate(tc.video, tc.rendition, tc.index, tc.size)
		if len(data) != tc.n || Hash(data) != tc.digest {
			t.Errorf("generate(%q, %q, %d, %d): %d bytes, sha256 %s; want %d bytes, %s",
				tc.video, tc.rendition, tc.index, tc.size, len(data), Hash(data), tc.n, tc.digest)
		}
	}
}

func TestMinimumSegmentSize(t *testing.T) {
	v := &Video{ID: "tiny", Renditions: []Rendition{{Name: "t", SegmentBytes: 1}}, Segments: 1, SegmentDuration: 1}
	data, err := v.SegmentData("t", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 64 {
		t.Fatalf("segments have a 64-byte floor, got %d", len(data))
	}
}

// Property: header parse is the inverse of generation for arbitrary
// well-formed identities.
func TestQuickHeaderRoundTrip(t *testing.T) {
	f := func(idRaw, rendRaw string, idx uint16) bool {
		id := clip(strings.Map(dropControl, idRaw), 80)
		rend := clip(strings.ReplaceAll(strings.Map(dropControl, rendRaw), "|", "_"), 40)
		if id == "" {
			id = "v"
		}
		if rend == "" {
			rend = "r"
		}
		data := generate(id, rend, int(idx), 256)
		gid, grend, gidx, ok := ParseHeader(data)
		return ok && gid == id && grend == rend && gidx == int(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// clip truncates s to at most n bytes on a rune boundary; segment IDs in
// playlists are short, and ParseHeader's scan window is 256 bytes.
func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	for n > 0 && (s[n]&0xc0) == 0x80 {
		n--
	}
	return s[:n]
}

func dropControl(r rune) rune {
	if r == '\n' || r == '\r' {
		return -1
	}
	return r
}

// Property: Verify accepts exactly the generated payload and rejects any
// single-byte mutation.
func TestQuickVerifyMutation(t *testing.T) {
	v := &Video{ID: "q", Renditions: []Rendition{{Name: "r", SegmentBytes: 512}}, Segments: 8, SegmentDuration: 10}
	f := func(idx uint8, pos uint16, flip byte) bool {
		i := int(idx) % 8
		data, err := v.SegmentData("r", i)
		if err != nil {
			return false
		}
		if !v.Verify("r", i, data) {
			return false
		}
		if flip == 0 {
			flip = 1
		}
		mut := append([]byte(nil), data...)
		mut[int(pos)%len(mut)] ^= flip
		return !v.Verify("r", i, mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
