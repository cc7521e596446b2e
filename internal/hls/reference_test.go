package hls

import (
	"bufio"
	"bytes"
	"fmt"
	"strconv"
	"strings"
)

// The fmt/bufio codec the package used before it rendered and parsed in
// one pass: the reference the differential tests hold Encode,
// ParseMediaPlaylist, ParseMasterPlaylist and SegmentURI to, byte for
// byte and field for field.

func refSegmentURI(index int) string {
	return fmt.Sprintf("seg%05d.ts", index)
}

func refEncode(p *MediaPlaylist) []byte {
	var b bytes.Buffer
	b.WriteString("#EXTM3U\n")
	fmt.Fprintf(&b, "#EXT-X-VERSION:%d\n", max(p.Version, 3))
	fmt.Fprintf(&b, "#EXT-X-TARGETDURATION:%d\n", p.TargetDuration)
	fmt.Fprintf(&b, "#EXT-X-MEDIA-SEQUENCE:%d\n", p.MediaSequence)
	for _, s := range p.Segments {
		fmt.Fprintf(&b, "#EXTINF:%.3f,\n%s\n", s.Duration, s.URI)
	}
	if !p.Live {
		b.WriteString("#EXT-X-ENDLIST\n")
	}
	return b.Bytes()
}

func refParseMediaPlaylist(data []byte) (*MediaPlaylist, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "#EXTM3U" {
		return nil, fmt.Errorf("hls: missing #EXTM3U header")
	}
	p := &MediaPlaylist{Live: true}
	var pendingDur float64
	var havePending bool
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
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
			spec := strings.TrimPrefix(line, "#EXTINF:")
			spec = strings.SplitN(spec, ",", 2)[0]
			d, err := strconv.ParseFloat(spec, 64)
			if err != nil {
				return nil, fmt.Errorf("hls: bad EXTINF: %w", err)
			}
			pendingDur, havePending = d, true
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
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hls: scan: %w", err)
	}
	return p, nil
}

func refParseMasterPlaylist(data []byte) (*MasterPlaylist, error) {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() || strings.TrimSpace(sc.Text()) != "#EXTM3U" {
		return nil, fmt.Errorf("hls: missing #EXTM3U header")
	}
	p := &MasterPlaylist{}
	var pending Variant
	var havePending bool
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
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
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("hls: scan: %w", err)
	}
	return p, nil
}
