package live

import (
	"sync"
	"sync/atomic"

	"diggsim/internal/obs"
)

// DefaultBusCapacity is the broadcast ring size used when NewBus is
// called with a non-positive capacity. It bounds how far a slow
// subscriber may fall behind before it starts losing events.
const DefaultBusCapacity = 4096

// busEntry is one published event paired with its sequence number. The
// pair is immutable once stored, so a reader that loaded the pointer
// can never observe a torn event — overwrite replaces the pointer, not
// the bytes.
type busEntry struct {
	seq uint64
	ev  Event
}

// Bus fans events out to subscribers through one shared append-only
// broadcast ring. Publish stamps the event with the next sequence
// number, writes it into its ring slot, and advances the head — O(1)
// work no matter how many subscribers exist, which is what makes a
// 100k-stream SSE fan-out feasible (the old design walked every
// subscriber's private ring under one mutex, so publish cost grew
// linearly with subscribers).
//
// Subscribers track their own cursor into the shared ring and read
// lock-free. A slow subscriber is never waited for: when the ring laps
// its cursor the overwritten events are counted as lag on its next
// Drain — the same drop-oldest semantics the per-subscriber rings had,
// now detected by the reader instead of enforced by the writer.
//
// Wake-ups are coalesced off the publish path: Publish kicks a single
// waker goroutine, which swaps and closes a broadcast channel all idle
// subscribers park on. The publisher therefore pays a non-blocking
// channel send, not an O(waiters) wake.
type Bus struct {
	capacity uint64 // ring size, power of two
	mask     uint64
	slots    []atomic.Pointer[busEntry]
	head     atomic.Uint64 // last published sequence number (0 = none)

	// pubMu serializes publishers: sequence assignment, the slot store
	// and the head advance happen under it. Readers never take it.
	pubMu sync.Mutex

	// dropped counts events whose overwrite a subscriber has detected.
	// Stats adds the not-yet-detected backlog lag on top, so the total
	// matches the old eager accounting.
	dropped atomic.Uint64

	// notify is the broadcast channel idle subscribers wait on; the
	// waker goroutine closes and replaces it after new publishes. kick
	// (capacity 1) is the publisher's O(1) handoff to the waker.
	// parked is set by Ready and cleared by the waker, so publishes
	// skip the handoff entirely while no subscriber is waiting.
	notify atomic.Pointer[chan struct{}]
	kick   chan struct{}
	parked atomic.Bool

	// subMu guards the subscriber registry, touched only on
	// Subscribe/Close/Stats — never on the publish or read path.
	subMu sync.Mutex
	subs  map[*Subscriber]struct{}
}

// NewBus returns a bus with the given ring capacity, rounded up to a
// power of two (DefaultBusCapacity when capacity <= 0).
func NewBus(capacity int) *Bus {
	if capacity <= 0 {
		capacity = DefaultBusCapacity
	}
	size := uint64(1)
	for size < uint64(capacity) {
		size <<= 1
	}
	b := &Bus{
		capacity: size,
		mask:     size - 1,
		slots:    make([]atomic.Pointer[busEntry], size),
		kick:     make(chan struct{}, 1),
		subs:     make(map[*Subscriber]struct{}),
	}
	ch := make(chan struct{})
	b.notify.Store(&ch)
	go b.waker()
	return b
}

// Publish stamps ev with the next sequence number, stores it in the
// ring and returns the assigned sequence. Cost is independent of the
// subscriber count: one small allocation, two atomic stores and a
// non-blocking wake handoff.
func (b *Bus) Publish(ev Event) uint64 {
	b.pubMu.Lock()
	seq := b.head.Load() + 1
	ev.Seq = seq
	ev.PubNano = obs.Now()
	b.slots[(seq-1)&b.mask].Store(&busEntry{seq: seq, ev: ev})
	b.head.Store(seq)
	b.pubMu.Unlock()
	// Hand the O(waiters) wake to the waker goroutine, but only when
	// someone is parked — an idle bus publishes for the ring alone. A
	// pending kick is guaranteed to be consumed after this head
	// advance, so its close covers this publish too.
	if b.parked.Load() {
		select {
		case b.kick <- struct{}{}:
		default:
		}
	}
	return seq
}

// waker turns publish kicks into broadcast wake-ups: swap in a fresh
// notify channel and close the old one, waking every parked
// subscriber. Runs for the life of the bus.
func (b *Bus) waker() {
	for range b.kick {
		// Clear parked before swapping: a Ready that re-parks on the
		// fresh channel after this point re-sets it, so the next
		// publish kicks again.
		b.parked.Store(false)
		ch := make(chan struct{})
		old := b.notify.Swap(&ch)
		close(*old)
	}
}

// notifyChan returns the channel the next publish wake-up will close.
// Callers must load it BEFORE re-checking the head: if the head has
// not moved after the load, any later publish is guaranteed to close
// the loaded channel (or a successor the caller will re-load).
func (b *Bus) notifyChan() <-chan struct{} { return *b.notify.Load() }

// Subscribe registers a subscriber that observes every event published
// after the call, minus any lost to ring overwrite. Callers must Close
// the subscriber when done.
func (b *Bus) Subscribe() *Subscriber {
	return b.SubscribeFrom(b.head.Load())
}

// SubscribeFrom registers a subscriber whose cursor starts just after
// sequence number after: the first event it observes is after+1. An
// after beyond the current head clamps to the head (nothing is
// replayed from the future); an after older than the ring retains is
// honored and surfaces as lag on the first Drain — callers replaying
// an SSE Last-Event-ID see exactly which events they missed.
func (b *Bus) SubscribeFrom(after uint64) *Subscriber {
	if head := b.head.Load(); after > head {
		after = head
	}
	s := &Subscriber{bus: b}
	s.cursor.Store(after)
	b.subMu.Lock()
	b.subs[s] = struct{}{}
	b.subMu.Unlock()
	return s
}

// BusStats are bus-lifetime counters plus current subscriber state.
type BusStats struct {
	Subscribers int
	Published   uint64
	// Dropped is the total number of events lost to ring overwrite
	// across all subscribers, including since-closed ones and lag not
	// yet observed by its subscriber.
	Dropped uint64
	// MaxQueued is the deepest current per-subscriber backlog, capped
	// at the ring capacity (deeper backlogs are lag, not queue).
	MaxQueued int
}

// Stats snapshots the bus counters.
func (b *Bus) Stats() BusStats {
	b.subMu.Lock()
	defer b.subMu.Unlock()
	head := b.head.Load()
	st := BusStats{
		Subscribers: len(b.subs),
		Published:   head,
		Dropped:     b.dropped.Load(),
	}
	for s := range b.subs {
		behind := head - s.cursor.Load()
		if behind > b.capacity {
			// Backlog beyond the ring is already lost; count it as
			// dropped now so Stats matches the old eager accounting,
			// and as queue depth report only what remains deliverable.
			st.Dropped += behind - b.capacity
			behind = b.capacity
		}
		if int(behind) > st.MaxQueued {
			st.MaxQueued = int(behind)
		}
	}
	return st
}

// Subscriber is one cursor into the bus's shared ring. Drain and Close
// may be called from any goroutine; Drain is serialized internally.
type Subscriber struct {
	bus *Bus

	mu     sync.Mutex    // serializes Drain, and Close against Drain
	cursor atomic.Uint64 // last consumed sequence number
	closed bool
	// limit freezes delivery at the head observed when Close ran, so a
	// closed subscriber never sees later publishes.
	limit        uint64
	totalDropped atomic.Uint64
}

// Drain returns all events published since the previous Drain, in
// sequence order, plus the number of events lost to ring overwrite in
// that window. The invariant len(events)+dropped == head-cursor makes
// lag accounting exact: every sequence number is either delivered or
// counted.
func (s *Subscriber) Drain() ([]Event, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.bus
	head := b.head.Load()
	if s.closed && s.limit < head {
		head = s.limit
	}
	cur := s.cursor.Load()
	if head <= cur {
		return nil, 0
	}
	var dropped uint64
	if head-cur > b.capacity {
		// The ring has lapped this cursor: everything up to head-cap
		// is unrecoverable.
		dropped = head - b.capacity - cur
		cur = head - b.capacity
	}
	out := make([]Event, 0, head-cur)
	for seq := cur + 1; seq <= head; seq++ {
		e := b.slots[(seq-1)&b.mask].Load()
		if e == nil || e.seq != seq {
			// Overwritten between the head load and this read (a
			// publisher lapped us mid-drain); later slots may still
			// hold their original events, so keep going.
			dropped++
			continue
		}
		out = append(out, e.ev)
	}
	s.cursor.Store(head)
	if dropped > 0 {
		s.totalDropped.Add(dropped)
		b.dropped.Add(dropped)
	}
	return out, dropped
}

// Ready returns a channel that is closed when events beyond the
// subscriber's cursor may be available; pair it with Drain in a select
// loop. Unlike a per-subscriber notification there is no sticky
// signal: callers must Drain first and only wait when it returned
// nothing (Drain-then-wait), which the SSE handler's loop does.
func (s *Subscriber) Ready() <-chan struct{} {
	b := s.bus
	ch := b.notifyChan()
	// Mark a waiter BEFORE the head re-check: a publish that lands
	// after the check below either sees parked and kicks the waker
	// (closing ch), or advanced the head early enough for the check
	// to catch it.
	b.parked.Store(true)
	if b.head.Load() > s.cursor.Load() {
		// New events raced our channel load; hand back an
		// already-closed channel so the caller's select fires now.
		closed := make(chan struct{})
		close(closed)
		return closed
	}
	return ch
}

// Lag returns the subscriber-lifetime count of events lost to ring
// overwrite, as observed by its Drains.
func (s *Subscriber) Lag() uint64 { return s.totalDropped.Load() }

// Cursor returns the sequence number of the last event consumed (or
// skipped as lag) by Drain.
func (s *Subscriber) Cursor() uint64 { return s.cursor.Load() }

// Close unregisters the subscriber. Events published before Close
// remain drainable; later ones are not delivered. Close is idempotent.
func (s *Subscriber) Close() {
	b := s.bus
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		s.limit = b.head.Load()
	}
	s.mu.Unlock()
	b.subMu.Lock()
	delete(b.subs, s)
	b.subMu.Unlock()
}
