package hls

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/stealthy-peers/pdnsec/internal/media"
)

func TestMediaPlaylistRoundTrip(t *testing.T) {
	p := &MediaPlaylist{
		Version:        3,
		TargetDuration: 10,
		MediaSequence:  42,
		Live:           false,
		Segments: []Segment{
			{URI: "seg00042.ts", Duration: 10},
			{URI: "seg00043.ts", Duration: 9.5},
		},
	}
	got, err := ParseMediaPlaylist(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, got)
	}
}

func TestLivePlaylistHasNoEndlist(t *testing.T) {
	p := &MediaPlaylist{Version: 3, TargetDuration: 10, Live: true,
		Segments: []Segment{{URI: "seg00001.ts", Duration: 10}}}
	text := string(p.Encode())
	if strings.Contains(text, "ENDLIST") {
		t.Fatal("live playlist must not contain ENDLIST")
	}
	got, err := ParseMediaPlaylist([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Live {
		t.Fatal("parsed playlist should be live")
	}
}

func TestParseMediaPlaylistErrors(t *testing.T) {
	cases := []string{
		"",
		"not a playlist",
		"#EXTM3U\n#EXT-X-VERSION:x\n",
		"#EXTM3U\n#EXT-X-TARGETDURATION:x\n",
		"#EXTM3U\n#EXT-X-MEDIA-SEQUENCE:x\n",
		"#EXTM3U\n#EXTINF:abc,\nseg.ts\n",
		"#EXTM3U\nseg-without-extinf.ts\n",
	}
	for _, c := range cases {
		if _, err := ParseMediaPlaylist([]byte(c)); err == nil {
			t.Errorf("ParseMediaPlaylist(%q) should fail", c)
		}
	}
}

func TestParseIgnoresUnknownTags(t *testing.T) {
	doc := "#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-FOO:bar\n#EXT-X-TARGETDURATION:10\n#EXTINF:10,\nseg00000.ts\n#EXT-X-ENDLIST\n"
	p, err := ParseMediaPlaylist([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 1 {
		t.Fatalf("segments: %+v", p.Segments)
	}
}

func TestMasterPlaylistRoundTrip(t *testing.T) {
	p := &MasterPlaylist{Variants: []Variant{
		{URI: "360p/playlist.m3u8", Bandwidth: 800_000, Name: "360p"},
		{URI: "720p/playlist.m3u8", Bandwidth: 2_400_000, Name: "720p"},
	}}
	got, err := ParseMasterPlaylist(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", p, got)
	}
}

func TestMasterPlaylistQuotedName(t *testing.T) {
	// NAME with a comma inside quotes must not split attributes.
	doc := "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100,NAME=\"hi, there\"\nv.m3u8\n"
	p, err := ParseMasterPlaylist([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	if p.Variants[0].Name != "hi, there" {
		t.Fatalf("name %q", p.Variants[0].Name)
	}
}

func TestParseMasterPlaylistErrors(t *testing.T) {
	for _, c := range []string{"", "#EXTM3U\nuri-without-inf\n", "#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=abc\nv\n"} {
		if _, err := ParseMasterPlaylist([]byte(c)); err == nil {
			t.Errorf("ParseMasterPlaylist(%q) should fail", c)
		}
	}
}

func TestSegmentURIRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 99999, 123456} {
		idx, ok := ParseSegmentURI(SegmentURI(n))
		if !ok || idx != n {
			t.Fatalf("round trip %d -> %q -> %d %v", n, SegmentURI(n), idx, ok)
		}
	}
	idx, ok := ParseSegmentURI("720p/seg00007.ts")
	if !ok || idx != 7 {
		t.Fatalf("path-qualified parse: %d %v", idx, ok)
	}
	for _, bad := range []string{"", "seg.ts", "segXX.ts", "foo00001.ts", "seg00001.mp4", "seg-1.ts"} {
		if _, ok := ParseSegmentURI(bad); ok {
			t.Errorf("ParseSegmentURI(%q) accepted", bad)
		}
	}
}

func TestForVideo(t *testing.T) {
	v := media.NewVOD("bbb", 10)
	mp := ForVideo(v)
	if len(mp.Variants) != len(v.Renditions) {
		t.Fatalf("variants %d", len(mp.Variants))
	}
	if mp.Variants[1].URI != "720p/playlist.m3u8" {
		t.Fatalf("uri %q", mp.Variants[1].URI)
	}
}

func TestWindowVOD(t *testing.T) {
	v := media.NewVOD("bbb", 5)
	p := Window(v, 0, 100)
	if len(p.Segments) != 5 || p.Live {
		t.Fatalf("VOD window clamps to asset: %d live=%v", len(p.Segments), p.Live)
	}
	p = Window(v, 3, 100)
	if len(p.Segments) != 2 || p.MediaSequence != 3 {
		t.Fatalf("offset window: %d seq %d", len(p.Segments), p.MediaSequence)
	}
	p = Window(v, 99, 10)
	if len(p.Segments) != 0 {
		t.Fatal("window past end should be empty")
	}
	p = Window(v, -5, 2)
	if p.MediaSequence != 0 {
		t.Fatal("negative from should clamp to 0")
	}
}

func TestWindowLiveSlides(t *testing.T) {
	v := media.NewLive("ch", 6)
	p := Window(v, 100, 6)
	if len(p.Segments) != 6 || !p.Live || p.MediaSequence != 100 {
		t.Fatalf("live window: %d live=%v seq=%d", len(p.Segments), p.Live, p.MediaSequence)
	}
	if p.Segments[0].URI != SegmentURI(100) {
		t.Fatalf("first URI %q", p.Segments[0].URI)
	}
}

// Property: Window's live semantics survive the wire. For any asset
// shape and any sliding-window schedule, every published window must
// encode and parse back intact: ENDLIST present iff the asset is VOD,
// media sequence monotone non-decreasing as the window slides, segment
// URIs naming exactly the window's indices, and VOD windows never
// referencing past the asset end. This is the contract the live
// flash-crowd chaos scenario leans on.
func TestQuickWindowLiveSemantics(t *testing.T) {
	check := func(seed int64, liveAsset bool, lenSeed, winSeed, stepSeed uint8) error {
		rng := rand.New(rand.NewSource(seed))
		segs := 1 + int(lenSeed%30)
		var v *media.Video
		if liveAsset {
			v = media.NewLive("ch", segs)
		} else {
			v = media.NewVOD("vod", segs)
		}
		// Non-integer durations exercise the EXTINF decimal formatting.
		v.SegmentDuration = float64(1+rng.Intn(10_000)) / 1000
		winLen := 1 + int(winSeed%8)
		from, lastSeq := 0, -1
		for step := 0; step < 1+int(stepSeed%10); step++ {
			p := Window(v, from, winLen)
			data := p.Encode()
			if bytes.Contains(data, []byte("#EXT-X-ENDLIST")) == v.Live {
				return fmt.Errorf("ENDLIST presence must match live=%v:\n%s", v.Live, data)
			}
			got, err := ParseMediaPlaylist(data)
			if err != nil {
				return fmt.Errorf("window [%d,+%d) does not parse back: %v", from, winLen, err)
			}
			if got.Live != v.Live || got.MediaSequence != p.MediaSequence {
				return fmt.Errorf("round-trip drift: live %v->%v seq %d->%d",
					p.Live, got.Live, p.MediaSequence, got.MediaSequence)
			}
			if got.MediaSequence < lastSeq {
				return fmt.Errorf("media sequence went backwards: %d after %d", got.MediaSequence, lastSeq)
			}
			lastSeq = got.MediaSequence
			if len(got.Segments) != len(p.Segments) {
				return fmt.Errorf("segment count drift: %d->%d", len(p.Segments), len(got.Segments))
			}
			for i, s := range got.Segments {
				idx, ok := ParseSegmentURI(s.URI)
				if !ok || idx != got.MediaSequence+i {
					return fmt.Errorf("segment %d URI %q does not name index %d", i, s.URI, got.MediaSequence+i)
				}
				if s.Duration != v.SegmentDuration {
					return fmt.Errorf("segment duration drift: %v->%v", v.SegmentDuration, s.Duration)
				}
			}
			if !v.Live && got.MediaSequence+len(got.Segments) > v.Segments {
				return fmt.Errorf("VOD window [%d,+%d) references past asset end %d", from, winLen, v.Segments)
			}
			from += rng.Intn(3)
		}
		return nil
	}
	f := func(seed int64, liveAsset bool, lenSeed, winSeed, stepSeed uint8) bool {
		if err := check(seed, liveAsset, lenSeed, winSeed, stepSeed); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(20260808))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode/Parse round-trips arbitrary well-formed playlists.
func TestQuickMediaRoundTrip(t *testing.T) {
	f := func(seq uint16, n uint8, live bool) bool {
		p := &MediaPlaylist{Version: 3, TargetDuration: 10, MediaSequence: int(seq), Live: live}
		for i := 0; i < int(n%20); i++ {
			p.Segments = append(p.Segments, Segment{URI: SegmentURI(int(seq) + i), Duration: 10})
		}
		got, err := ParseMediaPlaylist(p.Encode())
		return err == nil && reflect.DeepEqual(p, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Encode and SegmentURI render exactly what the fmt reference
// renders, for fractional, zero, negative-zero and repeated durations,
// media sequences past 100 000 and URIs of negative and six-digit
// indices, and so does every Window.
func TestQuickEncodeMatchesReference(t *testing.T) {
	durations := []float64{0, math.Copysign(0, -1), 10, 9.5, 0.0005, 0.0015, 1e-9, 123456.789, 1e21, -3.25}
	f := func(seed int64, n uint8, live bool) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &MediaPlaylist{
			Version:        rng.Intn(8) - 2,
			TargetDuration: rng.Intn(20),
			MediaSequence:  rng.Intn(1_000_000) - 1_000,
			Live:           live,
		}
		for i := 0; i < int(n%40); i++ {
			d := rng.Float64() * 20
			if rng.Intn(3) == 0 {
				d = durations[rng.Intn(len(durations))]
			} else if i > 0 && rng.Intn(2) == 0 {
				d = p.Segments[i-1].Duration
			}
			idx := p.MediaSequence + i
			if rng.Intn(4) == 0 {
				idx = rng.Intn(2_000_000) - 1_000_000
			}
			if uri, ref := SegmentURI(idx), refSegmentURI(idx); uri != ref {
				t.Logf("SegmentURI(%d) = %q, want %q", idx, uri, ref)
				return false
			}
			p.Segments = append(p.Segments, Segment{URI: SegmentURI(idx), Duration: d})
		}
		if got, want := p.Encode(), refEncode(p); !bytes.Equal(got, want) {
			t.Logf("Encode:\n%s\nreference:\n%s", got, want)
			return false
		}
		v := media.NewVOD("vod", 1+rng.Intn(300))
		if live {
			v = media.NewLive("ch", 6)
		}
		v.SegmentDuration = durations[rng.Intn(len(durations))]
		w := Window(v, rng.Intn(200_000), rng.Intn(20))
		for i, s := range w.Segments {
			if s.URI != refSegmentURI(w.MediaSequence+i) {
				t.Logf("Window segment %d is %q, want %q", i, s.URI, refSegmentURI(w.MediaSequence+i))
				return false
			}
		}
		if got, want := w.Encode(), refEncode(w); !bytes.Equal(got, want) {
			t.Logf("Window Encode:\n%s\nreference:\n%s", got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Fatal(err)
	}
	for _, idx := range []int{math.MinInt, -100_000, -1, 0, 99_999, 100_000, math.MaxInt} {
		if got, want := SegmentURI(idx), refSegmentURI(idx); got != want {
			t.Errorf("SegmentURI(%d) = %q, want %q", idx, got, want)
		}
	}
}

// TestLineBound: a line one byte short of maxLine parses, with or
// without a line break after it; a line of maxLine bytes does not.
func TestLineBound(t *testing.T) {
	for _, n := range []int{maxLine - 1, maxLine} {
		uri := strings.Repeat("a", n)
		for _, tail := range []string{"\n", ""} {
			p, err := ParseMediaPlaylist([]byte("#EXTM3U\n#EXTINF:10,\n" + uri + tail))
			if ok := n < maxLine; (err == nil) != ok {
				t.Errorf("a %d-byte URI line (break %q): err %v, want accepted=%v", n, tail, err, ok)
			} else if ok && (len(p.Segments) != 1 || len(p.Segments[0].URI) != n) {
				t.Errorf("a %d-byte URI line (break %q) parsed to %d segments", n, tail, len(p.Segments))
			}
		}
	}
}

// TestPlaylistAllocBudget: rendering a media playlist and parsing it
// back each cost a fixed handful of allocations, however many segments
// it lists — the playlist, its segment slice, one string of URIs and
// the rendered buffer; the parsed playlist, its segment slice and its
// one string copy of the body.
func TestPlaylistAllocBudget(t *testing.T) {
	const budget = 4
	var encode, parse [2]float64
	for i, n := range []int{10, 5000} {
		v := media.NewVOD("vod", n)
		data := Window(v, 0, n).Encode()
		encode[i] = testing.AllocsPerRun(20, func() { _ = Window(v, 0, n).Encode() })
		parse[i] = testing.AllocsPerRun(20, func() {
			if p, err := ParseMediaPlaylist(data); err != nil || len(p.Segments) != n {
				t.Fatalf("ParseMediaPlaylist: %v", err)
			}
		})
		t.Logf("%d segments: Window+Encode %.0f allocations, ParseMediaPlaylist %.0f", n, encode[i], parse[i])
	}
	if encode[0] != encode[1] || encode[1] > budget {
		t.Errorf("Window+Encode: %v allocations at 10 and 5000 segments; want the same, at most %d", encode, budget)
	}
	if parse[0] != parse[1] || parse[1] > budget {
		t.Errorf("ParseMediaPlaylist: %v allocations at 10 and 5000 segments; want the same, at most %d", parse, budget)
	}
}
