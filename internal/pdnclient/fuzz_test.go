package pdnclient

import (
	"bytes"
	"crypto/ed25519"
	"encoding/hex"
	"encoding/json"
	"testing"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/signal"
	"github.com/stealthy-peers/pdnsec/internal/wire"
)

// FuzzDecodeMsg hardens the data-channel frame header parser: every
// byte of a frame is chosen by a neighbor, and any swarm member can
// become one. decodeMsg must survive any input without panicking; a
// header it accepts must re-encode to exactly the frame it came from;
// and no field may run short of the frame's end or leave bytes after
// it — so every cut of an accepted frame, and the frame with a byte
// more, is rejected. The header decoded before it, whose strings
// decodeMsg reuses where they are equal, changes nothing: decoding
// after any prev is decoding after none.
func FuzzDecodeMsg(f *testing.F) {
	key := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 7}
	const trace = "00-00000000000000000af7651916cd43dd-b7ad6b7169203331-01"
	var frames [][]byte
	for _, h := range []p2pMsg{
		{Op: opWant, Key: key, Trace: trace},
		{Op: opSegment, Key: key, Found: true},
		{Op: opSegment, Key: key},
		{Op: 9, Key: media.SegmentKey{Index: 1<<32 - 1}}, // an unknown op, empty strings
	} {
		frame, err := appendMsg(nil, h)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
		f.Add(frame, "", "", "")
		f.Add(frame, key.Video, key.Rendition, trace) // the strings a neighbor repeats
	}
	f.Add(frames[1], key.Video, "720p", "")                                        // the rendition changed
	f.Add(frames[0], "bb", key.Rendition, trace[1:])                               // prev strings a prefix short
	f.Add([]byte{}, "", "", "")                                                    // an empty frame
	f.Add(frames[1][:msgFixed], "", "", "")                                        // cut after the fixed fields
	f.Add(frames[0][:len(frames[0])-1], key.Video, key.Rendition, trace)           // trace one byte short
	f.Add(append(frames[1][:len(frames[1]):len(frames[1])], 0), key.Video, "", "") // a byte after the trace
	f.Add([]byte{byte(opSegment), 2, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0}, "", "", "")    // found neither 0 nor 1
	f.Add([]byte{byte(opWant), 0, 0, 0, 0, 7, 0xff, 0xff, 'b'}, "b", "", "")       // video length past the end
	f.Add([]byte(`{"op":"want","key":{"video":"bbb"}}`), "", "", "")               // the retired JSON header
	f.Fuzz(func(t *testing.T, frame []byte, video, rendition, trace string) {
		hdr, err := decodeMsg(frame, p2pMsg{})
		prev := p2pMsg{Op: opSegment, Key: media.SegmentKey{Video: video, Rendition: rendition, Index: 3}, Trace: trace}
		if after, errAfter := decodeMsg(frame, prev); after != hdr || (errAfter == nil) != (err == nil) {
			t.Fatalf("after %+v the frame decodes as %+v, %v; after none as %+v, %v", prev, after, errAfter, hdr, err)
		}
		if err != nil {
			return
		}
		again, err := appendMsg(nil, hdr)
		if err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("accepted header %+v re-encodes to %v, %v; want the frame %v", hdr, again, err, frame)
		}
		for i := range frame {
			if h, err := decodeMsg(frame[:i], hdr); err == nil {
				t.Fatalf("the frame cut to %d of %d bytes decodes, as %+v", i, len(frame), h)
			}
		}
		if h, err := decodeMsg(append(again, 0), hdr); err == nil {
			t.Fatalf("the frame with a byte after its last field decodes, as %+v", h)
		}
	})
}

// FuzzSIMReply hardens the one place a signaling server's word becomes
// something the viewer trusts for up to signal.MaxSIMWindow segments:
// the body of a "sim" reply is the server's to choose — or a man in the
// middle's — and acceptSIM must survive any of it without panicking,
// cache nothing it rejected, cache only a run for the asked key that the
// session's manifest key signed as exactly that run, and afterwards
// answer lookups inside that run and nowhere else. keyed false is a session whose
// provider signs no manifests (a panel deployment): nothing to verify,
// every other bound the same. The seeds include the retired single-SIM
// forms — a bare "hash" with no window, and a signature over the old
// "key|hash" message — which no session accepts, and a genuinely signed
// window one hash past the cap, which none accepts either.
func FuzzSIMReply(f *testing.F) {
	priv := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{7}, ed25519.SeedSize))
	pub := priv.Public().(ed25519.PublicKey)
	asked := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 7}
	next := media.SegmentKey{Video: "bbb", Rendition: "360p", Index: 8}
	hashes := make([]string, signal.MaxSIMWindow+1)
	for i := range hashes {
		hashes[i] = media.Hash([]byte{byte(i)})
	}
	run := hashes[:16]
	keyHash := hex.EncodeToString(ed25519.Sign(priv, []byte(asked.String()+"|"+hashes[0])))
	flipped := append([]string{hashes[0], hashes[5]}, run[2:]...)
	type bareHash struct {
		signal.SIM
		Hash string `json:"hash"`
	}
	for _, seed := range []any{
		signal.SIM{Key: asked, Found: true, Window: run, Sig: media.SignSIMWindow(priv, asked, run)},
		signal.SIM{Key: asked, Found: true, Window: run[:3], Sig: media.SignSIMWindow(priv, asked, run[:3])},
		signal.SIM{Key: asked, Found: true, Window: hashes[:1], Sig: media.SignSIMWindow(priv, asked, hashes[:1])},
		bareHash{signal.SIM{Key: asked, Found: true, Sig: keyHash}, hashes[0]},
		signal.SIM{Key: asked},
		signal.SIM{Key: asked, Found: true, Window: flipped, Sig: media.SignSIMWindow(priv, asked, run)},
		signal.SIM{Key: asked, Found: true, Window: run[:len(run)-1], Sig: media.SignSIMWindow(priv, asked, run)},
		signal.SIM{Key: asked, Found: true, Window: run, Sig: media.SignSIMWindow(priv, next, run)},
		signal.SIM{Key: next, Found: true, Window: run, Sig: media.SignSIMWindow(priv, next, run)},
		signal.SIM{Key: asked, Found: true, Window: hashes[:len(run)+1], Sig: media.SignSIMWindow(priv, asked, hashes[:len(run)+1])},
		signal.SIM{Key: asked, Found: true, Window: hashes[:signal.MaxSIMWindow], Sig: media.SignSIMWindow(priv, asked, hashes[:signal.MaxSIMWindow])},
		signal.SIM{Key: asked, Found: true, Window: hashes, Sig: media.SignSIMWindow(priv, asked, hashes)}, // past the cap: refused
		bareHash{signal.SIM{Key: asked, Found: true, Sig: media.SignSIMWindow(priv, asked, hashes[:1])}, hashes[0]},
		signal.SIM{Key: asked, Found: true, Window: hashes[:1], Sig: keyHash},
		signal.SIM{Key: asked, Found: true, Window: []string{"", "not hex", "\x00"}, Sig: "zz"},
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
		if !resp.Found || resp.Key != asked || start != asked || len(cached) == 0 || len(cached) > signal.MaxSIMWindow || hash != cached[0] {
			t.Fatalf("accepted %+v for %v: returned %q, cached %d hashes at %v", resp, asked, hash, len(cached), start)
		}
		if keyed && !media.VerifySIMWindow(pub, asked, cached, resp.Sig) {
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
