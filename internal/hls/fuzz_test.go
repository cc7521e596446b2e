package hls

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// lineBoundSeeds are playlists whose one long line sits either side of
// maxLine, with and without a line break after it and as the header
// line or a segment URI.
func lineBoundSeeds(head string) [][]byte {
	var out [][]byte
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		long := strings.Repeat("a", n)
		out = append(out,
			[]byte(head+long+"\n"),
			[]byte(head+long),
			[]byte(long+"\n"))
	}
	return out
}

// sameMedia reports whether two parses agree field for field, a NaN
// duration equal to itself and a nil segment list unequal to an empty
// one.
func sameMedia(a, b *MediaPlaylist) bool {
	if a.Version != b.Version || a.TargetDuration != b.TargetDuration || a.MediaSequence != b.MediaSequence ||
		a.Live != b.Live || len(a.Segments) != len(b.Segments) || (a.Segments == nil) != (b.Segments == nil) {
		return false
	}
	for i, s := range a.Segments {
		t := b.Segments[i]
		if s.URI != t.URI || math.Float64bits(s.Duration) != math.Float64bits(t.Duration) {
			return false
		}
	}
	return true
}

// FuzzParseMediaPlaylist hardens the playlist parser against arbitrary
// CDN responses (the fake-CDN attack path feeds peers bytes an attacker
// chose), and holds it to the fmt/bufio reference on every input: both
// refuse it, or both return the same playlist, which Encode renders
// byte for byte as the reference does.
func FuzzParseMediaPlaylist(f *testing.F) {
	f.Add([]byte("#EXTM3U\n#EXT-X-VERSION:3\n#EXT-X-TARGETDURATION:10\n#EXTINF:10,\nseg00000.ts\n#EXT-X-ENDLIST\n"))
	f.Add([]byte("#EXTM3U\n"))
	f.Add([]byte(""))
	f.Add([]byte("#EXTM3U\r\n#EXT-X-VERSION:3\r\n#EXTINF:10.000,\r\nseg00000.ts\r\n#EXTINF:9.5,\r\nseg00001.ts\r\n#EXT-X-ENDLIST\r\n"))
	f.Add([]byte("#EXTM3U\n#EXTINF:10,\nseg00000.ts\n#EXT-X-ENDLIST"))               // no final line break
	f.Add([]byte("\n#EXTM3U\n#EXTINF:10,\nseg00000.ts\n"))                           // a blank line before the header
	f.Add([]byte("#EXTM3U\n\n  \n#EXTINF:10,\n\nseg00000.ts\n\n\n"))                 // blank lines between entries
	f.Add([]byte("#EXTM3U\n#EXTINF:10\nseg00000.ts\n#EXTINF:10\nseg00001.ts\n"))     // #EXTINF without a comma
	f.Add([]byte("#EXTM3U\n#EXTINF:10,\nseg00000.ts\n#EXTINF:,\nseg00001.ts\n"))     // an empty spec after a good one
	f.Add([]byte("#EXTM3U\n#EXTINF:,\nseg00000.ts\n"))                               // an empty spec first
	f.Add([]byte("#EXTM3U\n#EXTINF:NaN,\nseg00000.ts\n#EXTINF:-0,x\nseg00001.ts\n")) // NaN and a negative zero
	f.Add([]byte("#EXTM3U\n#EXTINF:10,\n#EXTINF:4,\nseg00000.ts\n"))                 // the last spec before a URI wins
	for _, seed := range lineBoundSeeds("#EXTM3U\n#EXTINF:10,\n") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseMediaPlaylist(data)
		want, wantErr := refParseMediaPlaylist(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseMediaPlaylist error %v; the reference's %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameMedia(p, want) {
			t.Fatalf("ParseMediaPlaylist = %+v; the reference parses %+v", p, want)
		}
		enc := p.Encode()
		if ref := refEncode(p); string(enc) != string(ref) {
			t.Fatalf("Encode = %q; the reference renders %q", enc, ref)
		}
		// Valid parses re-encode into something that parses again with
		// the same segment list.
		q, err := ParseMediaPlaylist(enc)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if len(q.Segments) != len(p.Segments) || q.MediaSequence != p.MediaSequence {
			t.Fatalf("round trip mismatch: %+v vs %+v", p, q)
		}
	})
}

// FuzzParseMasterPlaylist does the same for the variant parser.
func FuzzParseMasterPlaylist(f *testing.F) {
	f.Add([]byte("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100,NAME=\"x\"\nv.m3u8\n"))
	f.Add([]byte("#EXTM3U\n"))
	f.Add([]byte("#EXTM3U\r\n#EXT-X-STREAM-INF:BANDWIDTH=100,NAME=\"x\"\r\nv.m3u8\r\n"))
	f.Add([]byte("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=100\nv.m3u8"))
	f.Add([]byte("#EXTM3U\n\n#EXT-X-STREAM-INF:NAME=\"a, b\"\n\n\nv.m3u8\n\n"))
	for _, seed := range lineBoundSeeds("#EXTM3U\n#EXT-X-STREAM-INF:BANDWIDTH=1\n") {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseMasterPlaylist(data)
		want, wantErr := refParseMasterPlaylist(data)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ParseMasterPlaylist error %v; the reference's %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(p, want) {
			t.Fatalf("ParseMasterPlaylist = %+v; the reference parses %+v", p, want)
		}
		if _, err := ParseMasterPlaylist(p.Encode()); err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
	})
}
