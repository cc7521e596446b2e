package pdnclient

import (
	"bytes"
	"crypto/ed25519"
	"encoding/json"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/wire"
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

// FuzzSIMReply hardens the one place a signaling server's word becomes
// something the viewer trusts for sixteen segments: the body of a "sim"
// reply is the server's to choose — or a man in the middle's — and
// acceptSIM must survive any of it without panicking, cache nothing it
// rejected, cache only a run for the asked key that the session's
// manifest key signed as exactly that run, and afterwards answer lookups
// inside that run and nowhere else. keyed false is a session whose
// provider signs no manifests (a panel deployment): nothing to verify,
// every other bound the same.
func FuzzSIMReply(f *testing.F) {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	asked := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 7}
	next := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 8}
	hashes := make([]string, simWindow+1)
	for i := range hashes {
		hashes[i] = media.Hash([]byte{byte(i)})
	}
	run := hashes[:simWindow]
	one := media.SignSIM(priv, asked, hashes[0])
	flipped := append([]string{hashes[0], hashes[5]}, run[2:]...)
	for _, seed := range []signal.SIM{
		{Key: asked, Found: true, Window: run, Sig: media.SignSIMWindow(priv, asked, run)},
		{Key: asked, Found: true, Window: run[:3], Sig: media.SignSIMWindow(priv, asked, run[:3])},
		{Key: asked, Found: true, Hash: one.Hash, Sig: one.Sig},
		{Key: asked},
		{Key: asked, Found: true, Window: flipped, Sig: media.SignSIMWindow(priv, asked, run)},
		{Key: asked, Found: true, Window: run[:simWindow-1], Sig: media.SignSIMWindow(priv, asked, run)},
		{Key: asked, Found: true, Window: run, Sig: media.SignSIMWindow(priv, next, run)},
		{Key: next, Found: true, Window: run, Sig: media.SignSIMWindow(priv, next, run)},
		{Key: asked, Found: true, Window: hashes, Sig: media.SignSIMWindow(priv, asked, hashes)},
		{Key: asked, Found: true, Hash: hashes[0], Sig: media.SignSIMWindow(priv, asked, hashes[:1])},
		{Key: asked, Found: true, Window: hashes[:1], Sig: one.Sig},
		{Key: asked, Found: true, Window: []string{"", "not hex", "\x00"}, Sig: "zz"},
	} {
		body, err := json.Marshal(seed)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body, true)
		f.Add(body, false)
	}
	f.Add([]byte(`{"key":{"video":"bbb","rendition":"360p","index":7},"found":true,"window":"h"}`), true) // wrong type
	f.Add([]byte(`{"key":null,"found":true,"window":[null]}`), false)
	f.Add([]byte(`not json`), true)
	f.Add([]byte{}, false)
	f.Fuzz(func(t *testing.T, body []byte, keyed bool) {
		var resp signal.SIM
		if (wire.Envelope{Type: signal.MsgSIM, Data: body}).Decode(&resp) != nil {
			return // signal.Client.GetSIM returns the error; verifySegment reads no_sim
		}
		s := &session{}
		if keyed {
			s.manifestKey = pub
		}
		hash, reason := s.acceptSIM(asked, resp)
		start, cached := s.sims.start, s.sims.hashes
		if reason != "" {
			if hash != "" || cached != nil {
				t.Fatalf("rejected as %s, yet returned %q and cached %v at %v", reason, hash, cached, start)
			}
			return
		}
		if !resp.Found || resp.Key != asked || start != asked || len(cached) == 0 || len(cached) > simWindow || hash != cached[0] {
			t.Fatalf("accepted %+v for %v: returned %q, cached %d hashes at %v", resp, asked, hash, len(cached), start)
		}
		if keyed && !media.VerifySIMWindow(pub, asked, cached, resp.Sig) &&
			!(len(cached) == 1 && media.VerifySIM(pub, asked, cached[0], resp.Sig)) {
			t.Fatalf("cached %v at %v under a signature the manifest key did not make for it", cached, asked)
		}
		for off := -2; off < len(cached)+2; off++ {
			k := asked
			k.Index += off
			got, ok := s.sims.lookup(k)
			if inside := off >= 0 && off < len(cached); ok != inside || (ok && got != cached[off]) {
				t.Fatalf("lookup(%v) = %q, %v with %d hashes cached at %v", k, got, ok, len(cached), asked)
			}
		}
		for _, k := range []media.SegmentKey{
			{Video: "other", Rendition: asked.Rendition, Index: asked.Index},
			{Video: asked.Video, Rendition: "720p", Index: asked.Index},
		} {
			if got, ok := s.sims.lookup(k); ok {
				t.Fatalf("lookup(%v) = %q from a run cached for %v", k, got, asked)
			}
		}
	})
}
