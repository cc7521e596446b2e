package signal

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"sync/atomic"
)

// The server's room/candidate-pool state is striped across shards keyed
// by swarm ID, so two swarms only contend for a lock when they hash to
// the same stripe. A swarm lives wholly inside one shard, which keeps
// every matching decision (and the advertisement bookkeeping that
// drives peer-gone fanout) under a single short critical section.
//
// Outbound traffic — match responses, relays, not-found errors, and
// peer-gone notices — is not written from the requesting goroutine.
// Each shard owns a bounded queue drained by a flusher that takes
// whatever accumulated since the last tick as one batch, groups it by
// target session, and hands the per-target bundles to a bounded worker
// pool. That converts per-message wakeups into per-tick batches and
// replaces the seed's per-peer synchronous relaying (where a slow
// target stalled its sender's read loop) with backpressure on the
// shard queue.

// shard is one lock stripe of the server's swarm state plus its
// outbound delivery queue.
type shard struct {
	mu     sync.Mutex
	swarms map[string]*swarm
	q      *outQueue
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

// outMsg is one queued outbound message for a session. Payload is
// marshalled at delivery time, on a worker, not on the goroutine that
// produced it.
type outMsg struct {
	sess    *session
	typ     string
	payload any
}

// bundle is one delivery batch's messages for a single session, in
// arrival order.
type bundle struct {
	sess *session
	msgs []outMsg
}

// deliverJob pairs a bundle with its batch's completion group. The
// flusher waits for the whole batch before taking the next one, which
// is what keeps per-target delivery FIFO across batches.
type deliverJob struct {
	b  bundle
	wg *sync.WaitGroup
}

// outQueue is a bounded multi-producer queue with group-commit
// semantics: producers block for space (backpressure, never loss),
// and the single consumer takes everything accumulated since its last
// visit as one batch.
type outQueue struct {
	slots  chan struct{} // one buffered element per queued message
	notify chan struct{} // capacity 1; work-available edge

	mu    sync.Mutex
	buf   []outMsg
	depth atomic.Int64
}

// queueDepth caps each shard's outbound queue; producers block while
// their shard's queue is full.
const queueDepth = 4096

func newOutQueue() *outQueue {
	return &outQueue{
		slots:  make(chan struct{}, queueDepth),
		notify: make(chan struct{}, 1),
	}
}

// enqueue appends m, blocking while the queue is full (the slot send
// only proceeds while fewer than capacity messages are queued). It
// returns false without enqueueing when done closes first (server
// shutdown).
func (q *outQueue) enqueue(m outMsg, done <-chan struct{}) bool {
	select {
	case q.slots <- struct{}{}:
	case <-done:
		return false
	}
	q.mu.Lock()
	q.buf = append(q.buf, m)
	q.depth.Store(int64(len(q.buf)))
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return true
}

// take blocks until at least one message is queued and returns the
// whole accumulated batch, or nil when done closes while the queue is
// empty.
func (q *outQueue) take(done <-chan struct{}) []outMsg {
	for {
		q.mu.Lock()
		if len(q.buf) > 0 {
			batch := q.buf
			q.buf = nil
			q.depth.Store(0)
			q.mu.Unlock()
			for range batch {
				<-q.slots
			}
			return batch
		}
		q.mu.Unlock()
		select {
		case <-q.notify:
		case <-done:
			return nil
		}
	}
}

// queueDepth sums the outbound backlog across shards (the
// signal_shard_depth gauge).
func (s *Server) queueDepth() int64 {
	var total int64
	for _, sh := range s.shards {
		total += sh.q.depth.Load()
	}
	return total
}

// enqueue routes an outbound message through the owner shard of the
// target session, counting relay drops when the server is shutting
// down (so relay accounting stays an identity: accepted = delivered +
// dropped).
func (s *Server) enqueue(sh *shard, m outMsg) {
	if !sh.q.enqueue(m, s.done) && m.typ == MsgRelay {
		s.metrics.relayDrops.Inc()
	}
}

// flushLoop is a shard's group-commit drainer: one batch per tick,
// bundled per target, fanned out to the delivery workers, awaited
// before the next tick.
func (s *Server) flushLoop(sh *shard) {
	defer s.flushWg.Done()
	for {
		batch := sh.q.take(s.done)
		if batch == nil {
			return
		}
		s.metrics.batchSize.Observe(int64(len(batch)))
		bundles := bundleBySession(batch)
		var wg sync.WaitGroup
		for _, b := range bundles {
			wg.Add(1)
			s.deliverCh <- deliverJob{b: b, wg: &wg}
		}
		wg.Wait()
	}
}

// deliverLoop is one delivery worker. The channel is closed by Close
// after every flusher has exited, so ranging over it is the complete
// lifecycle.
func (s *Server) deliverLoop() {
	defer s.workerWg.Done()
	for job := range s.deliverCh {
		s.deliverBundle(job.b)
		job.wg.Done()
	}
}

// bundleBySession groups a batch into per-target bundles, preserving
// arrival order within each target.
func bundleBySession(batch []outMsg) []bundle {
	index := make(map[*session]int, len(batch))
	bundles := make([]bundle, 0, len(batch))
	for _, m := range batch {
		i, ok := index[m.sess]
		if !ok {
			i = len(bundles)
			index[m.sess] = i
			bundles = append(bundles, bundle{sess: m.sess})
		}
		bundles[i].msgs = append(bundles[i].msgs, m)
	}
	return bundles
}

// deliverBundle writes one target's messages, coalescing consecutive
// peer-gone notices into a single frame and keeping the relay
// delivered/dropped counters an identity with the accepted counter.
func (s *Server) deliverBundle(b bundle) {
	msgs := coalescePeerGone(b.msgs)
	for _, m := range msgs {
		err := b.sess.send(m.typ, m.payload)
		if m.typ == MsgRelay {
			if err != nil {
				s.metrics.relayDrops.Inc()
			} else {
				s.metrics.relaysDelivered.Inc()
			}
		}
	}
}

// coalescePeerGone merges runs of queued peer-gone notices for one
// target into single multi-peer frames — the per-tick fanout batching.
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
