package pdnclient

import (
	"bytes"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/media"
)

// FuzzDecodeMsg hardens the datachannel frame parser: every byte of a
// frame is chosen by a neighbor, and any swarm member can become one.
// decodeMsg must survive any input without panicking, and whatever
// header and payload it accepts must come back unchanged from an
// encodeMsg → decodeMsg round trip — a NUL inside the payload included,
// since only the first one separates.
func FuzzDecodeMsg(f *testing.F) {
	key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 7}
	want, err := encodeMsg(p2pMsg{Op: "want", Key: key, Trace: "00-0af7651916cd43dd-b7ad6b7169203331"}, nil)
	if err != nil {
		f.Fatal(err)
	}
	segment, err := encodeMsg(p2pMsg{Op: "segment", Key: key, Found: true}, []byte{1, 0, 2, 0, 0, 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(want)
	f.Add(segment)
	f.Add([]byte(`{"op":"want","key":{"video":"bbb"}}`)) // header with no separator
	f.Add([]byte{})                                      // empty frame
	f.Add([]byte("\x00{\"op\":\"segment\"}"))            // starts with the separator
	f.Fuzz(func(t *testing.T, frame []byte) {
		hdr, payload, err := decodeMsg(frame)
		if err != nil {
			return
		}
		again, err := encodeMsg(hdr, payload)
		if err != nil {
			t.Fatalf("accepted header %+v does not re-encode: %v", hdr, err)
		}
		hdr2, payload2, err := decodeMsg(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		if hdr2 != hdr {
			t.Fatalf("header changed in the round trip: %+v, then %+v", hdr, hdr2)
		}
		if !bytes.Equal(payload2, payload) {
			t.Fatalf("payload changed in the round trip: %d bytes, then %d", len(payload), len(payload2))
		}
	})
}
