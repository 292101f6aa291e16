package obs

import (
	"context"
	"sync"
	"testing"
)

func TestBusFanOutAndOrdering(t *testing.T) {
	b := NewBus(8)
	defer b.Close()
	s1 := b.Subscribe()
	s2 := b.Subscribe()
	if got := b.SubscriberCount(); got != 2 {
		t.Fatalf("SubscriberCount = %d, want 2", got)
	}
	for i := 0; i < 3; i++ {
		b.Publish(BusEvent{Kind: "point", Iter: i})
	}
	for _, s := range []*Subscription{s1, s2} {
		var prev uint64
		for i := 0; i < 3; i++ {
			ev := <-s.C
			if ev.Kind != "point" || ev.Iter != i {
				t.Fatalf("event %d = %+v", i, ev)
			}
			if ev.Seq <= prev {
				t.Fatalf("seq not increasing: %d after %d", ev.Seq, prev)
			}
			if ev.TimeUnixNano == 0 {
				t.Fatal("event missing timestamp")
			}
			prev = ev.Seq
		}
	}
}

func TestBusDropOldestOnOverflow(t *testing.T) {
	b := NewBus(2)
	defer b.Close()
	r := NewRegistry()
	dropCounter := r.Counter(MEventsDropped)
	b.SetDropCounter(dropCounter)
	s := b.Subscribe()
	for i := 0; i < 5; i++ {
		b.Publish(BusEvent{Kind: "point", Iter: i})
	}
	// Buffer of 2 with 5 publishes: the 3 oldest were evicted; the freshest
	// window (iters 3, 4) remains.
	if got := <-s.C; got.Iter != 3 {
		t.Errorf("first surviving event iter = %d, want 3", got.Iter)
	}
	if got := <-s.C; got.Iter != 4 {
		t.Errorf("second surviving event iter = %d, want 4", got.Iter)
	}
	if got := s.Dropped(); got != 3 {
		t.Errorf("Dropped = %d, want 3", got)
	}
	if got := dropCounter.Value(); got != 3 {
		t.Errorf("%s = %d, want 3", MEventsDropped, got)
	}
}

func TestBusPublishWithoutSubscribersIsCheapNoop(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	b.Publish(BusEvent{Kind: "point"})
	s := b.Subscribe()
	b.Publish(BusEvent{Kind: "point"})
	ev := <-s.C
	// The subscriber-less publish was not stamped: sequence starts at 1.
	if ev.Seq != 1 {
		t.Errorf("first subscribed event seq = %d, want 1", ev.Seq)
	}
}

func TestBusUnsubscribeClosesChannel(t *testing.T) {
	b := NewBus(4)
	defer b.Close()
	s := b.Subscribe()
	s.Unsubscribe()
	s.Unsubscribe() // idempotent
	if _, ok := <-s.C; ok {
		t.Fatal("channel still open after Unsubscribe")
	}
	if got := b.SubscriberCount(); got != 0 {
		t.Errorf("SubscriberCount = %d, want 0", got)
	}
	b.Publish(BusEvent{Kind: "point"}) // must not panic
}

func TestBusCloseReleasesSubscribersAndRejectsPublish(t *testing.T) {
	b := NewBus(4)
	s := b.Subscribe()
	b.Close()
	b.Close() // idempotent
	if _, ok := <-s.C; ok {
		t.Fatal("channel still open after Close")
	}
	b.Publish(BusEvent{Kind: "point"}) // must not panic
	post := b.Subscribe()
	if _, ok := <-post.C; ok {
		t.Fatal("subscription on closed bus should have a closed channel")
	}
}

func TestBusNilSafety(t *testing.T) {
	var b *Bus
	b.Publish(BusEvent{})
	b.SetDropCounter(nil)
	b.Close()
	if got := b.SubscriberCount(); got != 0 {
		t.Errorf("nil bus SubscriberCount = %d", got)
	}
	s := b.Subscribe()
	if _, ok := <-s.C; ok {
		t.Fatal("nil bus subscription should have a closed channel")
	}
	var sub *Subscription
	sub.Unsubscribe()
	if sub.Dropped() != 0 {
		t.Error("nil subscription Dropped != 0")
	}
}

func TestBusConcurrentPublishSubscribe(t *testing.T) {
	b := NewBus(16)
	defer b.Close()
	const publishers, events = 4, 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Churning subscribers while publishers hammer the bus exercises the
	// subscribe/unsubscribe/publish lock interplay under -race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			s := b.Subscribe()
			<-s.C
			s.Unsubscribe()
		}
		close(stop)
	}()
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					b.Publish(BusEvent{Kind: "point", Iter: i})
				}
			}
		}()
	}
	wg.Wait()
}

func TestContextPublish(t *testing.T) {
	var nilCtx *Context
	nilCtx.Publish(BusEvent{}) // nil-safe
	octx := &Context{}
	octx.Publish(BusEvent{}) // no bus attached
	if octx.Enabled() {
		t.Error("empty context Enabled = true")
	}
	octx.Bus = NewBus(4)
	defer octx.Bus.Close()
	if !octx.Enabled() {
		t.Error("context with bus Enabled = false")
	}
	s := octx.Bus.Subscribe()
	octx.Publish(BusEvent{Kind: "sweep", Name: "start"})
	if ev := <-s.C; ev.Kind != "sweep" || ev.Name != "start" {
		t.Errorf("event = %+v", ev)
	}
}

func TestRecordFansEventsToBus(t *testing.T) {
	bus := NewBus(16)
	defer bus.Close()
	octx := &Context{Recorder: NewRecorder(), Bus: bus}
	s := bus.Subscribe()
	tr := octx.StartSolver(WithRequestID(context.Background(), "req-1"), "anneal")
	tr.Incumbent(10, 42)
	tr.Stage("justify", EvIncumbent, 2, 41)
	tr.Certify(41, 40, false)
	tr.End()
	ev := <-s.C
	if ev != (BusEvent{Seq: ev.Seq, TimeUnixNano: ev.TimeUnixNano, Kind: "solver", Name: "anneal", Event: "incumbent", Req: "req-1", Iter: 10, Value: 42}) {
		t.Errorf("incumbent event = %+v", ev)
	}
	// A stage outcome goes out once, as a "stage" event, not also as a
	// "solver" one.
	stage := <-s.C
	if stage != (BusEvent{Seq: stage.Seq, TimeUnixNano: stage.TimeUnixNano, Kind: "stage", Name: "justify", Req: "req-1", Iter: 2, Value: 41}) {
		t.Errorf("stage event = %+v", stage)
	}
	cert := <-s.C
	if cert.Kind != "solver" || cert.Event != "certificate" || cert.Req != "req-1" || cert.Value != 41 {
		t.Errorf("certificate event = %+v", cert)
	}
	if wantGap := (41.0 - 40.0) / 41.0; cert.Gap != wantGap {
		t.Errorf("certificate gap = %g, want %g", cert.Gap, wantGap)
	}
	select {
	case extra := <-s.C:
		t.Errorf("unexpected event %+v", extra)
	default:
	}
	// The recorder still captured everything alongside the live fan-out.
	recs := octx.Recorder.Snapshot()
	if len(recs) != 1 || len(recs[0].Events) != 2 || recs[0].Certificate == nil {
		t.Fatalf("recorder snapshot = %+v", recs)
	}
	if e := recs[0].Events[1]; e.Kind != EvIncumbent || e.Iter != 2 || e.Value != 41 {
		t.Errorf("recorded stage event = %+v", e)
	}
}

func TestRecordBusOnlyWithoutRecorder(t *testing.T) {
	bus := NewBus(16)
	defer bus.Close()
	octx := &Context{Bus: bus}
	s := bus.Subscribe()
	tr := octx.StartSolver(context.Background(), "tabu")
	tr.Bound(3, 17)
	tr.End()
	if ev := <-s.C; ev.Event != "bound" || ev.Value != 17 {
		t.Errorf("event = %+v", ev)
	}
}

func TestSolverRunOwnsSpan(t *testing.T) {
	tr := NewTracer()
	octx := &Context{Tracer: tr}
	parent := octx.StartSpan("solve")
	run := octx.WithSpan(parent).StartSolver(context.Background(), "anneal")
	run.Span().ArgInt("iterations", 5)
	run.End()
	run.End() // idempotent
	parent.End()
	recs := tr.Snapshot()
	if len(recs) != 2 || recs[1].Name != "anneal" || recs[1].TID != recs[0].TID || recs[1].DurNs < 0 || recs[1].Args["iterations"] != 5 {
		t.Fatalf("spans = %+v, want an ended anneal child of solve", recs)
	}
	if err := WellNested(recs); err != nil {
		t.Error(err)
	}
}
