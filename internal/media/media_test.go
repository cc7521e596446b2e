package media

import (
	"bytes"
	"crypto/aes"
	"crypto/ed25519"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
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

// TestVerify: Verify accepts exactly the segment's own bytes; every
// other payload of any length is pollution.
func TestVerify(t *testing.T) {
	v := NewVOD("bbb", 4)
	data, _ := v.SegmentData("360p", 0)
	if !v.Verify("360p", 0, data) {
		t.Fatal("Verify rejected authentic segment")
	}
	flip := func(i int) []byte {
		b := append([]byte(nil), data...)
		b[i] ^= 0x01
		return b
	}
	header := len("PDNSEG1\x00bbb|360p|0\n")
	other, _ := v.SegmentData("360p", 1)
	spliced := append(data[:header:header], other[len("PDNSEG1\x00bbb|360p|1\n"):]...)
	for _, tc := range []struct {
		name  string
		index int
		data  []byte
	}{
		{"first filler byte flipped", 0, flip(header)},
		{"middle byte flipped", 0, flip(len(data) / 2)},
		{"last filler byte flipped", 0, flip(len(data) - 1)},
		{"truncated", 0, data[:len(data)-1]},
		{"extended", 0, append(append([]byte(nil), data...), 0)},
		{"empty", 0, nil},
		{"another identity's filler behind this header", 0, spliced},
		{"misplaced (replayed) segment", 1, data},
	} {
		if v.Verify("360p", tc.index, tc.data) {
			t.Errorf("%s: Verify accepted it", tc.name)
		}
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
// IM services emit, here for a single segment — a run of one: hex
// ed25519 over the tag, the length-prefixed key and the length-prefixed
// hash list.
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
	sig := SignSIMWindow(priv, key, []string{"abc123"})
	raw, err := hex.DecodeString(sig)
	if err != nil || !ed25519.Verify(pub, []byte("\x00pdnsec-sim-window\x00\x08v/720p/7\x01\x06abc123"), raw) {
		t.Fatalf("signature is not ed25519 over the documented message (%v)", err)
	}
	next := SegmentKey{Video: "v", Rendition: "720p", Index: 8}
	one := []string{"abc123"}
	for name, ok := range map[string]bool{
		"genuine":       VerifySIMWindow(pub, key, one, sig),
		"other key":     !VerifySIMWindow(other, key, one, sig),
		"other hash":    !VerifySIMWindow(pub, key, []string{"abc124"}, sig),
		"other segment": !VerifySIMWindow(pub, next, one, sig),
		"empty list":    !VerifySIMWindow(pub, key, nil, sig),
		"truncated sig": !VerifySIMWindow(pub, key, one, sig[:len(sig)-2]),
		"non-hex sig":   !VerifySIMWindow(pub, key, one, "zz"),
		"empty sig":     !VerifySIMWindow(pub, key, one, ""),
		"legacy key|hash message": !VerifySIMWindow(pub, key, one,
			hex.EncodeToString(ed25519.Sign(priv, []byte("v/720p/7|abc123")))),
	} {
		if !ok {
			t.Errorf("%s: wrong verdict", name)
		}
	}
}

// TestSIMWindowSignVerify: a window signature binds the start key and
// the ordered hash list.
func TestSIMWindowSignVerify(t *testing.T) {
	pub, priv, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	key := SegmentKey{Video: "v", Rendition: "720p", Index: 7}
	next := SegmentKey{Video: "v", Rendition: "720p", Index: 8}
	hashes := []string{"aa", "bb", "cc"}
	sig := SignSIMWindow(priv, key, hashes)
	for name, ok := range map[string]bool{
		"genuine":               VerifySIMWindow(pub, key, hashes, sig),
		"shifted start":         !VerifySIMWindow(pub, next, hashes, sig),
		"truncated list":        !VerifySIMWindow(pub, key, hashes[:2], sig),
		"first as a run of one": !VerifySIMWindow(pub, key, hashes[:1], sig),
		"reordered list":        !VerifySIMWindow(pub, key, []string{"bb", "aa", "cc"}, sig),
		"flipped hash":          !VerifySIMWindow(pub, key, []string{"aa", "bb", "cd"}, sig),
		"moved boundary":        !VerifySIMWindow(pub, key, []string{"aab", "b", "cc"}, sig),
		"non-hex sig":           !VerifySIMWindow(pub, key, hashes, "zz"),
	} {
		if !ok {
			t.Errorf("%s: wrong verdict", name)
		}
	}
}

// TestGenerateGoldenDigests pins the generated bytes themselves: every
// oracle downstream (Tables I–IV, the defense matrix, chaos logs)
// assumes a segment's content is a fixed function of its identity. The
// digests are of the AES-128-CTR filler; an independent AES-CTR
// implementation gives the same three.
func TestGenerateGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		video, rendition string
		index, size, n   int
		digest           string
	}{
		{"bbb", "360p", 0, 256 << 10, 256 << 10, "a653707d37c9c90a81cb2648eda12211cd25947c6a27fc8e98ce6edb546cbb44"},
		// Not a multiple of the 16-byte block: the last block is cut.
		{"live/main", "720p", 41, 1000, 1000, "cb9658a7e2b13bc544069d6f59b391a3f6034dc3b829dae54d4b1743a547535c"},
		// Below the floor: clamped to 64 bytes.
		{"tiny", "t", 3, 1, 64, "89f915df8a2db5a2a761dcce6eaedf23436daeee689c21daba9bc5c4434a9d64"},
	} {
		data := generate(tc.video, tc.rendition, tc.index, tc.size)
		if len(data) != tc.n || Hash(data) != tc.digest {
			t.Errorf("generate(%q, %q, %d, %d): %d bytes, sha256 %s; want %d bytes, %s",
				tc.video, tc.rendition, tc.index, tc.size, len(data), Hash(data), tc.n, tc.digest)
		}
	}
}

// TestGenerateKnownAnswer rebuilds the filler's definition by hand, from
// the block cipher alone: key sha256(header)[:16], initial counter block
// sha256(header)[16:], counter block k (a 128-bit big-endian sum) is
// encrypted for filler bytes 16k..16k+15. The first 16 filler bytes and
// the last 16 (whose final block may be cut) must be those encryptions.
func TestGenerateKnownAnswer(t *testing.T) {
	for _, tc := range []struct {
		video, rendition string
		index, size      int
	}{
		{"bbb", "360p", 0, 256 << 10},
		{"live/main", "720p", 41, 1000},
	} {
		header := fmt.Sprintf("PDNSEG1\x00%s|%s|%d\n", tc.video, tc.rendition, tc.index)
		data := generate(tc.video, tc.rendition, tc.index, tc.size)
		if !bytes.HasPrefix(data, []byte(header)) {
			t.Fatalf("%q: segment does not open with its header", header)
		}
		filler := data[len(header):]
		seed := sha256.Sum256([]byte(header))
		block, err := aes.NewCipher(seed[:16])
		if err != nil {
			t.Fatal(err)
		}
		keystream := func(k int) []byte {
			var ctr, out [aes.BlockSize]byte
			copy(ctr[:], seed[16:])
			carry := uint64(k)
			for i := len(ctr) - 1; i >= 0 && carry > 0; i-- {
				sum := uint64(ctr[i]) + carry&0xff
				ctr[i] = byte(sum)
				carry = carry>>8 + sum>>8
			}
			block.Encrypt(out[:], ctr[:])
			return out[:]
		}
		if got, want := filler[:16], keystream(0); !bytes.Equal(got, want) {
			t.Errorf("%q: first filler block %x, want E(IV) = %x", header, got, want)
		}
		last := (len(filler) - 1) / aes.BlockSize
		tail := append(keystream(last-1), keystream(last)...)
		tail = tail[:len(filler)-(last-1)*aes.BlockSize]
		if got, want := filler[len(filler)-16:], tail[len(tail)-16:]; !bytes.Equal(got, want) {
			t.Errorf("%q: last 16 filler bytes %x, want %x from counter blocks %d and %d", header, got, want, last-1, last)
		}
	}
}

// TestSegmentDataAllocBudget: a segment costs its own bytes and little
// else. The returned slice is exactly as long as its backing array, so
// the CDN edge memo, which counts len, holds what it counts.
func TestSegmentDataAllocBudget(t *testing.T) {
	const size = 256 << 10
	v := &Video{ID: "bbb", Renditions: []Rendition{{Name: "360p", SegmentBytes: size}}, Segments: 8, SegmentDuration: 10}
	const rounds = 8
	held := make([][]byte, rounds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range held {
		var err error
		if held[i], err = v.SegmentData("360p", i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for i, data := range held {
		if len(data) != size || cap(data) != len(data) {
			t.Fatalf("segment %d: len %d cap %d, want both %d", i, len(data), cap(data), size)
		}
	}
	if per, limit := (after.TotalAlloc-before.TotalAlloc)/rounds, uint64(size+4<<10); per > limit {
		t.Errorf("SegmentData allocates %d B per %d-byte segment, want <= %d", per, size, limit)
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
