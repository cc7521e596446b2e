// Package hls implements the subset of HTTP Live Streaming playlists the
// pdnsec testbed serves: master playlists with variant streams and media
// playlists with segment entries, including live-window (sliding
// media-sequence) playlists.
//
// Both the CDN and the PDN SDK consume manifests through this package,
// as do the attacks — the paper's fake-CDN pollution attack rewrites the
// segments a manifest references, and its direct-pollution variant is
// detected precisely because the first segments of a playlist are always
// fetched from the CDN ("slow start").
package hls

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/stealthy-peers/pdnsec/internal/media"
)

// Segment is one entry in a media playlist.
type Segment struct {
	// URI is the segment location, relative to the playlist.
	URI string `json:"uri"`
	// Duration is the playback duration in seconds.
	Duration float64 `json:"duration"`
}

// MediaPlaylist is a variant playlist listing media segments.
type MediaPlaylist struct {
	Version        int       `json:"version"`
	TargetDuration int       `json:"target_duration"`
	MediaSequence  int       `json:"media_sequence"`
	Live           bool      `json:"live"` // live playlists omit EXT-X-ENDLIST
	Segments       []Segment `json:"segments"`
}

// Encode renders the playlist as an .m3u8 document, in one buffer sized
// up front. A duration is formatted (as %.3f would) only when it differs
// from the entry before's, so a playlist whose segments share one costs
// a single formatting however long it is.
func (p *MediaPlaylist) Encode() []byte {
	var num [32]byte
	var dur []byte
	n := len("#EXTM3U\n#EXT-X-VERSION:\n#EXT-X-TARGETDURATION:\n#EXT-X-MEDIA-SEQUENCE:\n#EXT-X-ENDLIST\n") + 3*20
	for i, s := range p.Segments {
		if i == 0 || math.Float64bits(s.Duration) != math.Float64bits(p.Segments[i-1].Duration) {
			dur = strconv.AppendFloat(num[:0], s.Duration, 'f', 3, 64)
		}
		n += len("#EXTINF:,\n\n") + len(dur) + len(s.URI)
	}
	b := make([]byte, 0, n)
	b = append(b, "#EXTM3U\n#EXT-X-VERSION:"...)
	b = strconv.AppendInt(b, int64(max(p.Version, 3)), 10)
	b = append(b, "\n#EXT-X-TARGETDURATION:"...)
	b = strconv.AppendInt(b, int64(p.TargetDuration), 10)
	b = append(b, "\n#EXT-X-MEDIA-SEQUENCE:"...)
	b = strconv.AppendInt(b, int64(p.MediaSequence), 10)
	b = append(b, '\n')
	for i, s := range p.Segments {
		if i == 0 || math.Float64bits(s.Duration) != math.Float64bits(p.Segments[i-1].Duration) {
			dur = strconv.AppendFloat(num[:0], s.Duration, 'f', 3, 64)
		}
		b = append(b, "#EXTINF:"...)
		b = append(b, dur...)
		b = append(b, ",\n"...)
		b = append(b, s.URI...)
		b = append(b, '\n')
	}
	if !p.Live {
		b = append(b, "#EXT-X-ENDLIST\n"...)
	}
	return b
}

// maxLine bounds one playlist line, its line break not counted: a
// playlist with a line of maxLine bytes or more is refused. No real
// playlist has one, and the bound keeps the accepted inputs exactly
// those of a line scanner with a 1 MiB buffer, the tests' reference.
const maxLine = 1 << 20

var errLineTooLong = errors.New("hls: line of 1 MiB or more")

// nextLine cuts the first line off s and returns it trimmed of space, a
// substring of s.
func nextLine(s string) (line, rest string, err error) {
	line, rest, _ = strings.Cut(s, "\n")
	if len(line) >= maxLine {
		return "", "", errLineTooLong
	}
	return strings.TrimSpace(line), rest, nil
}

// header checks that data opens with #EXTM3U and returns the text after
// that first line, as one string every parsed field is a substring of.
func header(data []byte) (string, error) {
	first, rest, err := nextLine(string(data))
	if err != nil || first != "#EXTM3U" {
		return "", fmt.Errorf("hls: missing #EXTM3U header")
	}
	return rest, nil
}

// ParseMediaPlaylist decodes an .m3u8 media playlist in one pass over
// one string copy of data: every Segment.URI is a substring of it, and
// an #EXTINF spec is parsed again only when its text changes.
func ParseMediaPlaylist(data []byte) (*MediaPlaylist, error) {
	rest, err := header(data)
	if err != nil {
		return nil, err
	}
	p := &MediaPlaylist{Live: true, Segments: make([]Segment, 0, strings.Count(rest, "#EXTINF:"))}
	var spec string
	var pendingDur float64
	var haveSpec, havePending bool
	for rest != "" {
		var line string
		if line, rest, err = nextLine(rest); err != nil {
			return nil, err
		}
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#EXT-X-VERSION:"):
			v, err := strconv.Atoi(strings.TrimPrefix(line, "#EXT-X-VERSION:"))
			if err != nil {
				return nil, fmt.Errorf("hls: bad version: %w", err)
			}
			p.Version = v
		case strings.HasPrefix(line, "#EXT-X-TARGETDURATION:"):
			v, err := strconv.Atoi(strings.TrimPrefix(line, "#EXT-X-TARGETDURATION:"))
			if err != nil {
				return nil, fmt.Errorf("hls: bad target duration: %w", err)
			}
			p.TargetDuration = v
		case strings.HasPrefix(line, "#EXT-X-MEDIA-SEQUENCE:"):
			v, err := strconv.Atoi(strings.TrimPrefix(line, "#EXT-X-MEDIA-SEQUENCE:"))
			if err != nil {
				return nil, fmt.Errorf("hls: bad media sequence: %w", err)
			}
			p.MediaSequence = v
		case strings.HasPrefix(line, "#EXTINF:"):
			s, _, _ := strings.Cut(strings.TrimPrefix(line, "#EXTINF:"), ",")
			if !haveSpec || s != spec {
				d, err := strconv.ParseFloat(s, 64)
				if err != nil {
					return nil, fmt.Errorf("hls: bad EXTINF: %w", err)
				}
				spec, pendingDur, haveSpec = s, d, true
			}
			havePending = true
		case line == "#EXT-X-ENDLIST":
			p.Live = false
		case strings.HasPrefix(line, "#"):
			// Unknown tag: ignore, as real players do.
		default:
			if !havePending {
				return nil, fmt.Errorf("hls: segment %q without EXTINF", line)
			}
			p.Segments = append(p.Segments, Segment{URI: line, Duration: pendingDur})
			havePending = false
		}
	}
	if len(p.Segments) == 0 {
		p.Segments = nil // as a playlist with no entries always decoded
	}
	return p, nil
}

// Variant is one entry of a master playlist.
type Variant struct {
	URI       string `json:"uri"`
	Bandwidth int    `json:"bandwidth"`
	Name      string `json:"name"`
}

// MasterPlaylist lists the variant streams of an asset.
type MasterPlaylist struct {
	Variants []Variant `json:"variants"`
}

// Encode renders the master playlist as an .m3u8 document.
func (p *MasterPlaylist) Encode() []byte {
	var b bytes.Buffer
	b.WriteString("#EXTM3U\n")
	for _, v := range p.Variants {
		fmt.Fprintf(&b, "#EXT-X-STREAM-INF:BANDWIDTH=%d,NAME=%q\n%s\n", v.Bandwidth, v.Name, v.URI)
	}
	return b.Bytes()
}

// ParseMasterPlaylist decodes an .m3u8 master playlist.
func ParseMasterPlaylist(data []byte) (*MasterPlaylist, error) {
	rest, err := header(data)
	if err != nil {
		return nil, err
	}
	p := &MasterPlaylist{}
	var pending Variant
	var havePending bool
	for rest != "" {
		var line string
		if line, rest, err = nextLine(rest); err != nil {
			return nil, err
		}
		switch {
		case line == "":
			continue
		case strings.HasPrefix(line, "#EXT-X-STREAM-INF:"):
			pending = Variant{}
			for _, attr := range splitAttrs(strings.TrimPrefix(line, "#EXT-X-STREAM-INF:")) {
				k, v, _ := strings.Cut(attr, "=")
				switch k {
				case "BANDWIDTH":
					bw, err := strconv.Atoi(v)
					if err != nil {
						return nil, fmt.Errorf("hls: bad BANDWIDTH: %w", err)
					}
					pending.Bandwidth = bw
				case "NAME":
					pending.Name = strings.Trim(v, `"`)
				}
			}
			havePending = true
		case strings.HasPrefix(line, "#"):
			// ignore
		default:
			if !havePending {
				return nil, fmt.Errorf("hls: variant URI %q without STREAM-INF", line)
			}
			pending.URI = line
			p.Variants = append(p.Variants, pending)
			havePending = false
		}
	}
	return p, nil
}

// splitAttrs splits an attribute list on commas outside quotes.
func splitAttrs(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"':
			inQuote = !inQuote
			cur.WriteByte(c)
		case c == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteByte(c)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// SegmentURI formats the canonical segment filename used by the testbed
// CDN layout: seg<index>.ts, zero-padded to five digits.
func SegmentURI(index int) string {
	var b [32]byte
	return string(appendSegmentURI(b[:0], index))
}

// appendSegmentURI appends SegmentURI(index) to dst, padded as %05d pads:
// the sign of a negative index counts toward the five.
func appendSegmentURI(dst []byte, index int) []byte {
	var num [24]byte
	digits := strconv.AppendInt(num[:0], int64(index), 10)
	dst = append(dst, "seg"...)
	width := 5
	if index < 0 {
		dst, digits, width = append(dst, '-'), digits[1:], 4
	}
	for i := len(digits); i < width; i++ {
		dst = append(dst, '0')
	}
	dst = append(dst, digits...)
	return append(dst, ".ts"...)
}

// ParseSegmentURI inverts SegmentURI, accepting any digit run.
func ParseSegmentURI(uri string) (int, bool) {
	base := uri
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	if !strings.HasPrefix(base, "seg") || !strings.HasSuffix(base, ".ts") {
		return 0, false
	}
	n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(base, "seg"), ".ts"))
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// ForVideo builds the master playlist for a media.Video, with variant
// playlists at "<rendition>/playlist.m3u8".
func ForVideo(v *media.Video) *MasterPlaylist {
	mp := &MasterPlaylist{Variants: make([]Variant, 0, len(v.Renditions))}
	for _, r := range v.Renditions {
		mp.Variants = append(mp.Variants, Variant{
			URI:       r.Name + "/playlist.m3u8",
			Bandwidth: r.Bandwidth,
			Name:      r.Name,
		})
	}
	return mp
}

// Window builds the media playlist for a rendition of v covering segment
// indices [from, from+count). VOD assets clamp to the asset length and
// include ENDLIST; live assets slide and stay open.
func Window(v *media.Video, from, count int) *MediaPlaylist {
	if from < 0 {
		from = 0
	}
	if !v.Live {
		if from > v.Segments {
			from = v.Segments
		}
		if from+count > v.Segments {
			count = v.Segments - from
		}
	}
	p := &MediaPlaylist{
		Version:        3,
		TargetDuration: int(v.SegmentDuration + 0.999),
		MediaSequence:  from,
		Live:           v.Live,
	}
	p.Segments = make([]Segment, count)
	if count == 0 {
		return p
	}
	// Every URI is a substring of one string: its bytes are written
	// once, and a URI is never allocated on its own.
	var num [32]byte
	var uris strings.Builder
	uris.Grow(count * len(appendSegmentURI(num[:0], from+count-1)))
	for i := range p.Segments {
		start := uris.Len()
		uris.Write(appendSegmentURI(num[:0], from+i))
		p.Segments[i] = Segment{URI: uris.String()[start:], Duration: v.SegmentDuration}
	}
	return p
}
