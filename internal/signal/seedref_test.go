package signal

import (
	"math/rand"
	"strconv"
	"sync"
)

// seedRef reimplements the pre-sharding server's matching core exactly:
// one mutex over every swarm, map-backed rooms, and a full
// collect-shuffle-truncate pass per get-peers request. It is the
// "single-lock baseline" the benchmark compares the sharded server
// against, and the semantics oracle for the parity test (its eligible
// sets define what any correct matcher may return).
type seedRef struct {
	mu     sync.Mutex
	nextID int
	peers  map[string]*seedPeer
	swarms map[string]map[string]*seedPeer
	rng    *rand.Rand
}

type seedPeer struct {
	id          string
	swarmID     string
	fingerprint string
	country     string
}

func newSeedRef(seed int64) *seedRef {
	return &seedRef{
		peers:  make(map[string]*seedPeer),
		swarms: make(map[string]map[string]*seedPeer),
		rng:    rand.New(rand.NewSource(seed)),
	}
}

func (r *seedRef) join(swarmID, country string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.nextID++
	p := &seedPeer{id: "p" + strconv.Itoa(r.nextID), swarmID: swarmID, country: country}
	r.peers[p.id] = p
	sw, ok := r.swarms[swarmID]
	if !ok {
		sw = make(map[string]*seedPeer)
		r.swarms[swarmID] = sw
	}
	sw[p.id] = p
	return p.id
}

func (r *seedRef) leave(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[id]
	if !ok {
		return
	}
	delete(r.peers, id)
	if sw, ok := r.swarms[p.swarmID]; ok {
		delete(sw, id)
		if len(sw) == 0 {
			delete(r.swarms, p.swarmID)
		}
	}
}

// getPeers is the seed server's matchPeers verbatim: scan the whole
// room, shuffle the eligible slice, truncate. O(room size) per call.
func (r *seedRef) getPeers(id string, max int) []PeerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[id]
	if !ok {
		return nil
	}
	sw := r.swarms[p.swarmID]
	cands := make([]*seedPeer, 0, len(sw))
	for cid, c := range sw {
		if cid == id {
			continue
		}
		cands = append(cands, c)
	}
	r.rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > max {
		cands = cands[:max]
	}
	out := make([]PeerInfo, 0, len(cands))
	for _, c := range cands {
		out = append(out, PeerInfo{ID: c.id, Fingerprint: c.fingerprint})
	}
	return out
}

// eligible returns the IDs a correct matcher may hand to the requester
// — the oracle the parity test checks every real response against.
func (r *seedRef) eligible(id string) map[string]bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[id]
	if !ok {
		return nil
	}
	out := make(map[string]bool)
	for cid := range r.swarms[p.swarmID] {
		if cid != id {
			out[cid] = true
		}
	}
	return out
}
