package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// BusEvent is one telemetry observation fanned out to Bus subscribers: a
// solver event or stage outcome, a sweep-point completion, an incumbent
// update, a request summary, or a job status change. The flat shape (no
// nested maps) keeps publishing allocation-light and the JSON form directly
// streamable over SSE.
type BusEvent struct {
	// Seq is the bus-assigned publish sequence number, strictly increasing
	// per bus. Subscribers detect gaps (dropped events) by discontinuities.
	Seq uint64 `json:"seq"`
	// TimeUnixNano stamps the publish wall-clock time.
	TimeUnixNano int64 `json:"timeUnixNano"`
	// Kind classifies the event: "solver", "stage", "sweep", "point",
	// "incumbent", "request", "job".
	Kind string `json:"kind"`
	// Name is the kind-specific subject: solver name, solver stage,
	// sweep-point label, request path.
	Name string `json:"name,omitempty"`
	// Event subdivides "solver" events with the flight-recorder kind
	// ("incumbent", "bound", "temperature", "restart", "certificate").
	Event string `json:"event,omitempty"`
	// Req is the correlation ID of the request (or sweep point) the event
	// belongs to, when known.
	Req string `json:"req,omitempty"`
	// Job is the async job ID for job-scoped events.
	Job string `json:"job,omitempty"`
	// Iter is the solver's progress coordinate for flight-recorder events.
	Iter int `json:"iter,omitempty"`
	// Value is the kind-specific observation (incumbent makespan, speedup...).
	Value float64 `json:"value,omitempty"`
	// Gap is the certified optimality gap, for point and certificate events.
	Gap float64 `json:"gap,omitempty"`
	// Done and Total carry sweep progress.
	Done  int `json:"done,omitempty"`
	Total int `json:"total,omitempty"`
	// DurSec is the duration of completed requests, sweeps and points.
	DurSec float64 `json:"durSec,omitempty"`
	// Status carries terminal state ("done", "failed", ...) for job events
	// and degradation markers for point events.
	Status string `json:"status,omitempty"`
}

// Subscription is one subscriber's bounded event feed. Receive from C;
// events published while the buffer is full evict the oldest buffered event
// (drop-oldest backpressure), so a slow consumer sees the freshest window of
// the stream rather than stalling publishers.
type Subscription struct {
	// C delivers events in publish order. It is closed by Bus.Close and by
	// Unsubscribe, never by the bus on overflow.
	C chan BusEvent

	bus     *Bus
	id      uint64
	dropped atomic.Uint64
	closed  bool // guarded by bus.mu
}

// Dropped reports how many events this subscription evicted unread.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	return s.dropped.Load()
}

// Unsubscribe detaches the subscription and closes C. Safe to call more than
// once and on a nil subscription.
func (s *Subscription) Unsubscribe() {
	if s == nil || s.bus == nil {
		return
	}
	s.bus.unsubscribe(s)
}

// Bus is a bounded, drop-oldest fan-out of telemetry events: the push
// counterpart of the pull-based tracer/metrics/recorder sinks. Publishers
// never block — when a subscriber's buffer is full its oldest event is
// evicted and counted — so attaching the bus keeps the solver stack's
// latency profile intact. A nil *Bus is a valid, fully disabled bus; Publish
// on it is a no-op, preserving the <2% disabled-overhead contract.
type Bus struct {
	mu     sync.RWMutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool

	seq     atomic.Uint64
	dropped *Counter // hilp_events_dropped_total when metrics are attached
	buffer  int
	now     func() int64 // wall-clock unix nanos; stubbed in tests
}

// NewBus returns a bus whose subscriptions buffer up to buffer events each
// (buffer < 1 selects 256).
func NewBus(buffer int) *Bus {
	if buffer < 1 {
		buffer = 256
	}
	return &Bus{
		subs:   map[uint64]*Subscription{},
		buffer: buffer,
		now:    func() int64 { return time.Now().UnixNano() },
	}
}

// SetDropCounter attaches the counter incremented once per evicted event
// (conventionally MEventsDropped). A nil counter is valid.
func (b *Bus) SetDropCounter(c *Counter) {
	if b != nil {
		b.dropped = c
	}
}

// Subscribe registers a new subscriber. Events published after Subscribe
// returns are delivered; there is no replay. A closed (or nil) bus returns a
// subscription whose channel is already closed, so consumer loops terminate
// immediately instead of hanging.
func (b *Bus) Subscribe() *Subscription {
	if b == nil {
		ch := make(chan BusEvent)
		close(ch)
		return &Subscription{C: ch}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		ch := make(chan BusEvent)
		close(ch)
		return &Subscription{C: ch, closed: true}
	}
	b.nextID++
	s := &Subscription{C: make(chan BusEvent, b.buffer), bus: b, id: b.nextID}
	b.subs[s.id] = s
	return s
}

func (b *Bus) unsubscribe(s *Subscription) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	delete(b.subs, s.id)
	close(s.C)
}

// Publish stamps the event with a sequence number and timestamp and delivers
// it to every subscriber, evicting each full subscriber's oldest buffered
// event. Never blocks; a nil or closed bus — or one nobody subscribed to —
// ignores the event without stamping, keeping the always-attached server bus
// nearly free while no stream is open.
func (b *Bus) Publish(ev BusEvent) {
	if b == nil {
		return
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	if b.closed || len(b.subs) == 0 {
		return
	}
	ev.Seq = b.seq.Add(1)
	ev.TimeUnixNano = b.now()
	for _, s := range b.subs {
		select {
		case s.C <- ev:
			continue
		default:
		}
		// Buffer full: evict the oldest event, then retry once. The second
		// send can still lose a race against a concurrent publisher filling
		// the freed slot; dropping the new event then is equally valid
		// drop-*an*-oldest behavior under contention.
		select {
		case <-s.C:
			s.dropped.Add(1)
			b.dropped.Inc()
		default:
		}
		select {
		case s.C <- ev:
		default:
			s.dropped.Add(1)
			b.dropped.Inc()
		}
	}
}

// SubscriberCount reports the number of attached subscriptions.
func (b *Bus) SubscriberCount() int {
	if b == nil {
		return 0
	}
	b.mu.RLock()
	defer b.mu.RUnlock()
	return len(b.subs)
}

// Close detaches and closes every subscription and rejects future publishes.
// Idempotent.
func (b *Bus) Close() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, s := range b.subs {
		s.closed = true
		delete(b.subs, id)
		close(s.C)
	}
}
