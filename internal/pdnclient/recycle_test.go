package pdnclient

import (
	"context"
	"net/netip"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/stealthy-peers/pdnsec/internal/media"
	"github.com/stealthy-peers/pdnsec/internal/netsim"
	"github.com/stealthy-peers/pdnsec/internal/provider"
	"github.com/stealthy-peers/pdnsec/internal/secure"
	"github.com/stealthy-peers/pdnsec/internal/signal"
)

// TestRecyclingWhileUploading: two peers whose caches hold two
// segments, so every put evicts, each play the video from the CDN and
// download from the other at once, over either transport. Each asks for
// the oldest segment the other holds, the one its next put evicts: an
// evicted buffer is where the next segment lands, while the read loop
// may still be sealing an upload from that very entry. Every segment
// either peer played, and every segment either was served, must be the
// segment's own bytes.
func TestRecyclingWhileUploading(t *testing.T) {
	const segments, rounds = 16, 8
	const segBytes = 256 << 10
	for _, transport := range []string{"dtls", "secure"} {
		t.Run(transport, func(t *testing.T) {
			video := &media.Video{
				ID:              "bbb",
				Renditions:      []media.Rendition{{Name: "360p", Bandwidth: segBytes * 8 / 10, SegmentBytes: segBytes}},
				Segments:        segments,
				SegmentDuration: 10,
			}
			tb := newTestbed(t, provider.Peer5(), video)
			var ta *secure.TransportAuthority
			if transport == "secure" {
				var err error
				if ta, err = secure.NewTransportAuthority(); err != nil {
					t.Fatal(err)
				}
			}
			var peers [2]*Peer
			for i := range peers {
				cfg := tb.peerConfig(t)
				cfg.CacheSegments = 2
				// Each write between the peers then waits 400 µs, and an
				// upload writes its frame header's two chunks before it seals
				// the body: it holds its entry ~800 µs first, time for the
				// playback loop to evict the entry and fetch the next segment.
				cfg.Host.SetLatency(200 * time.Microsecond)
				cfg.OnSegment = func(k media.SegmentKey, data []byte, source string) {
					if !video.Verify(k.Rendition, k.Index, data) {
						t.Errorf("peer %d played %v from %s: not the segment's bytes", i, k, source)
					}
				}
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				// The session carries no P2P policy, so playback is the CDN's
				// alone, and the download below the test's.
				if ta != nil {
					admitSecure(t, ta, p, string(rune('a'+i)))
				} else {
					admit(p, nil, signal.Welcome{})
				}
				peers[i] = p
			}
			connectPair(t, peers[0], peers[1])
			defer peers[0].teardown()
			defer peers[1].teardown()

			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			var (
				players, downloaders sync.WaitGroup
				playing              = make(chan struct{})
				served               [2]atomic.Int64
			)
			for i, p := range peers {
				far := peers[1-i]
				p.mu.Lock()
				nb := p.neighbors[far.cfg.Host.Addr().String()]
				p.mu.Unlock()
				players.Add(1)
				go func() {
					defer players.Done()
					for r := 0; r < rounds*segments; r++ {
						if err := p.playSegment(ctx, r%segments); err != nil {
							t.Errorf("peer %d: play %d: %v", i, r%segments, err)
							return
						}
					}
				}()
				downloaders.Add(1)
				go func() {
					defer downloaders.Done()
					for {
						select {
						case <-playing:
							return
						default:
						}
						cached := far.CachedIndices()
						if len(cached) == 0 {
							runtime.Gosched()
							continue
						}
						key := media.SegmentKey{Video: video.ID, Rendition: "360p", Index: slices.Min(cached)}
						data, found := nb.request(ctx, key)
						if !found {
							continue
						}
						if !video.Verify(key.Rendition, key.Index, data) {
							t.Errorf("peer %d was served %v: not the segment's bytes", i, key)
							return
						}
						served[1-i].Add(1)
						// What playSegment does with a segment it keeps.
						p.cache.recycle(p.cache.put(key.Index, data))
					}
				}()
			}
			players.Wait()
			close(playing)
			downloaders.Wait()
			for i := range served {
				if served[i].Load() == 0 {
					t.Errorf("peer %d served nothing: the test raced no upload against its playback", i)
				}
			}
		})
	}
}

// connectPair joins two admitted peers with a direct stream and the
// transport their sessions call for, each registering the other as a
// neighbor under its host address.
func connectPair(t *testing.T, a, b *Peer) {
	t.Helper()
	ra, rb := netsim.Pair(a.cfg.Host, b.cfg.Host,
		netip.AddrPortFrom(a.cfg.Host.Addr(), 5000), netip.AddrPortFrom(b.cfg.Host.Addr(), 5000))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	served := make(chan error, 1)
	go func() {
		cb, err := b.transportHandshake(ctx, b.session(), rb, a.Fingerprint(), a.StaticKeyHex(), false)
		if err == nil {
			b.addNeighbor(a.cfg.Host.Addr().String(), cb)
		}
		served <- err
	}()
	ca, err := a.transportHandshake(ctx, a.session(), ra, b.Fingerprint(), b.StaticKeyHex(), true)
	if err != nil {
		t.Fatal(err)
	}
	a.addNeighbor(b.cfg.Host.Addr().String(), ca)
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}
