package signal

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"sync"
)

// The server's room/candidate-pool state is striped across shards keyed
// by swarm ID, so two swarms only contend for a lock when they hash to
// the same stripe. A swarm lives wholly inside one shard, which keeps
// every matching decision (and the advertisement bookkeeping that
// drives peer-gone fanout) under a single short critical section.
//
// Outbound traffic — match responses, relays, errors, SIM replies and
// peer-gone notices — is not written from the goroutine that produced
// it. Each session owns a bounded queue and, while the queue is
// non-empty, one writer goroutine that drains it in order; with nothing
// queued, a session runs no writer. A target that stops reading stalls
// only its own writer, never its sender's read loop or another
// session's delivery, and once its backlog reaches the bound it is
// disconnected.

// shard is one lock stripe of the server's swarm state.
type shard struct {
	mu     sync.Mutex
	swarms map[string]*swarm
}

// swarm is one room: the candidate pool and the matching RNG. The pool
// is an order-maintained slice so matching can sample k candidates in
// O(k) instead of scanning and shuffling the whole room per request.
// The RNG is seeded from the server seed and the swarm ID alone, so a
// swarm's matching sequence is identical at any shard count.
type swarm struct {
	id      string
	members []*session
	rng     *rand.Rand
}

// shardFor maps a swarm ID onto its owning stripe.
func (s *Server) shardFor(swarmID string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(swarmID))
	return s.shards[h.Sum32()%uint32(len(s.shards))]
}

// swarmSeed derives the per-swarm matching seed. XOR keeps the server
// seed's influence while decorrelating swarms from each other.
func swarmSeed(serverSeed int64, swarmID string) int64 {
	h := fnv.New64a()
	h.Write([]byte(swarmID))
	return serverSeed ^ int64(h.Sum64())
}

// outMsg is one queued outbound message. Payload is marshalled when
// the session's writer sends it, not on the goroutine that produced it.
type outMsg struct {
	typ     string
	payload any
}

// queueDepth bounds each session's outbound backlog: the messages
// waiting for its writer, besides the batch the writer is sending. A
// session that lets it fill has stopped reading: it is disconnected,
// and what it was sent is shed (relays into signal_relay_drops_total).
const queueDepth = 4096

// enqueue appends a message to sess's outbound queue and starts the session's
// writer if none is running. It never waits: a session whose backlog
// has reached queueDepth gets its codec closed instead, so its handler
// unregisters it and fans out peer-gone, and the message is dropped.
func (s *Server) enqueue(sess *session, typ string, payload any) {
	sess.mu.Lock()
	if len(sess.out) >= queueDepth {
		sess.mu.Unlock()
		if typ == MsgRelay {
			s.metrics.relayDrops.Inc()
		}
		sess.codec.Close()
		return
	}
	sess.out = append(sess.out, outMsg{typ: typ, payload: payload})
	s.queued.Add(1)
	start := !sess.writing
	sess.writing = true
	sess.mu.Unlock()
	if start {
		// Every producer runs on a connection handler, which s.wg
		// already counts, so this Add never races Close's Wait.
		s.wg.Add(1)
		go s.writeLoop(sess)
	}
}

// writeLoop is a session's writer: it drains the queue in order, one
// accumulated batch per pass, and exits when the queue is empty. A
// send fails fast once the codec is closed, so a disconnected session's
// backlog drains into the drop counter instead of lingering.
func (s *Server) writeLoop(sess *session) {
	defer s.wg.Done()
	// Yield before the first write. netsim streams are channels, so a
	// closed-loop client, its handler and this writer would otherwise
	// pass one scheduler time slice down the request/reply chain,
	// starving every other session until the runtime preempts the chain
	// wherever it stands, lock holders included: on 2 vCPUs, swarmload's
	// match p99 rose from ~3.5 ms to ~13.5 ms without the yield.
	runtime.Gosched()
	for {
		sess.mu.Lock()
		batch := sess.out
		sess.out = nil
		if len(batch) == 0 {
			sess.writing = false
			sess.mu.Unlock()
			return
		}
		s.queued.Add(-int64(len(batch)))
		sess.mu.Unlock()
		s.metrics.batchSize.Observe(int64(len(batch)))
		for _, m := range coalescePeerGone(batch) {
			err := sess.send(m.typ, m.payload)
			if m.typ == MsgRelay {
				if err != nil {
					s.metrics.relayDrops.Inc()
				} else {
					s.metrics.relaysDelivered.Inc()
				}
			}
		}
	}
}

// coalescePeerGone merges runs of queued peer-gone notices for one
// target into single multi-peer frames.
func coalescePeerGone(msgs []outMsg) []outMsg {
	out := msgs[:0]
	for _, m := range msgs {
		if m.typ == MsgPeerGone && len(out) > 0 && out[len(out)-1].typ == MsgPeerGone {
			prev := out[len(out)-1].payload.(PeerGone)
			next := m.payload.(PeerGone)
			prev.Peers = append(prev.Peers, next.Peers...)
			out[len(out)-1].payload = prev
			continue
		}
		out = append(out, m)
	}
	return out
}
