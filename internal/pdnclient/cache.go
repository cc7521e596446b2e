package pdnclient

import (
	"slices"
	"sync"
)

// segmentCache is the SDK's in-memory segment store — the browser-cache
// analogue the paper notes is same-origin protected and short-lived.
// It evicts the oldest (lowest-index) segment beyond its capacity and
// reports its footprint to the resource meter.
//
// It owns every segment buffer the peer holds, plus one spare: the
// buffer its last eviction gave up, which the next segment lands in,
// whether it arrives over P2P or from the CDN. A cache of capacity 0 (a
// plain viewer's, which serves nobody) keeps no segment, so each one
// lands in the buffer the one before it played from.
type segmentCache struct {
	mu       sync.Mutex
	max      int
	segments map[int]cacheEntry
	total    int64
	onSize   func(int64)
	spare    []byte
}

// cacheEntry is one cached segment. serving counts the uploads still
// sealing from data: an entry evicted while one runs is left to the GC,
// never made the spare.
type cacheEntry struct {
	data    []byte
	serving int
}

func newSegmentCache(max int, onSize func(int64)) *segmentCache {
	return &segmentCache{
		max:      max,
		segments: make(map[int]cacheEntry, max),
		onSize:   onSize,
	}
}

// put stores a segment, evicting the lowest index if over capacity. It
// returns the buffer an eviction gave up that no upload reads, for the
// caller to recycle once it is done with data — which, in a cache of
// capacity 0, is that buffer.
func (c *segmentCache) put(idx int, data []byte) (freed []byte) {
	c.mu.Lock()
	if old, ok := c.segments[idx]; ok {
		c.total -= int64(len(old.data))
	}
	c.segments[idx] = cacheEntry{data: data}
	c.total += int64(len(data))
	for len(c.segments) > c.max {
		lowest := -1
		for i := range c.segments {
			if lowest < 0 || i < lowest {
				lowest = i
			}
		}
		e := c.segments[lowest]
		c.total -= int64(len(e.data))
		delete(c.segments, lowest)
		if e.serving == 0 {
			freed = e.data
		}
	}
	total := c.total
	cb := c.onSize
	c.mu.Unlock()
	if cb != nil {
		cb(total)
	}
	return freed
}

// recycle makes b, a segment buffer nothing references any more, the
// spare, unless there is one already.
func (c *segmentCache) recycle(b []byte) {
	c.mu.Lock()
	if c.spare == nil {
		c.spare = b
	}
	c.mu.Unlock()
}

// takeSpare hands the spare to the caller, who owns it from then on:
// nil when there is none.
func (c *segmentCache) takeSpare() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.spare
	c.spare = nil
	return b
}

// serveFrom returns a cached segment for an upload to seal from; the
// entry stays out of the spare until doneServing.
func (c *segmentCache) serveFrom(idx int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.segments[idx]
	if !ok {
		return nil, false
	}
	e.serving++
	c.segments[idx] = e
	return e.data, true
}

// doneServing ends an upload serveFrom began. An entry evicted in the
// meantime is gone from the cache, and its buffer with it.
func (c *segmentCache) doneServing(idx int, data []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.segments[idx]; ok && len(e.data) > 0 && len(data) > 0 && &e.data[0] == &data[0] {
		e.serving--
		c.segments[idx] = e
	}
}

// get returns a copy of a cached segment.
func (c *segmentCache) get(idx int) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.segments[idx]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), e.data...), true
}

// indices returns the cached segment indices, ascending.
func (c *segmentCache) indices() []int {
	c.mu.Lock()
	out := make([]int, 0, len(c.segments))
	for i := range c.segments {
		out = append(out, i)
	}
	c.mu.Unlock()
	slices.Sort(out)
	return out
}

// size returns the cache footprint in bytes.
func (c *segmentCache) size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
