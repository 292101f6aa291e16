package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"hilp"
	"hilp/internal/obs"
	"hilp/internal/server"
	"hilp/internal/wire"
)

// serve: hilp-serve in process on a loopback listener, driven by two
// closed-loop clients. It is the only workload where admission, the response
// LRU (reads and writes) and wire encoding are a visible share of latency.
// One op is one HTTP request.

const serveClients = 2

// serveBlock is the request mix, drawn as seed-shuffled blocks of 20 per
// client so every run has exactly these shares: 40% repeats of one of the
// client's five latest fresh requests (cache hits: well inside the 128-entry
// LRU, so the hit share is fixed by the plan), 45% template-mode evaluations,
// 10% model-mode fig2-family DAGs small enough for the exact stage, and 5%
// 8-spec batches.
func serveBlock() []string {
	kinds := make([]string, 0, serveBlockLen)
	for _, share := range []struct {
		kind string
		n    int
	}{{"repeat", 8}, {"template", 9}, {"model", 2}, {"batch", 1}} {
		for i := 0; i < share.n; i++ {
			kinds = append(kinds, share.kind)
		}
	}
	return kinds
}

const serveBlockLen = 20

// serveReq is one planned request.
type serveReq struct {
	kind  string // template, model, batch or repeat
	path  string
	value any
	orig  int // repeats: index of the repeated request
}

// clientPlan draws one client's requests from the seed.
type clientPlan struct {
	rng    *rand.Rand
	id     int
	base   int64
	reqs   []serveReq
	fresh  []int
	block  []string
	tmpl   int
	models int
}

func newClientPlan(seed int64, id int) *clientPlan {
	rng := rand.New(rand.NewSource(seed*serveClients + int64(id)))
	return &clientPlan{rng: rng, id: id, base: 2 * rng.Int63n(1<<40)}
}

func (p *clientPlan) at(k int) serveReq {
	for k >= len(p.reqs) {
		p.draw()
	}
	return p.reqs[k]
}

func (p *clientPlan) draw() {
	if len(p.block) == 0 {
		p.block = serveBlock()
		p.rng.Shuffle(len(p.block), func(i, j int) { p.block[i], p.block[j] = p.block[j], p.block[i] })
		if len(p.fresh) == 0 {
			// The client's first request has nothing to repeat.
			for i, kind := range p.block {
				if kind != "repeat" {
					p.block[0], p.block[i] = p.block[i], p.block[0]
					break
				}
			}
		}
	}
	kind := p.block[0]
	p.block = p.block[1:]
	var r serveReq
	switch kind {
	case "repeat":
		recent := p.fresh[max(0, len(p.fresh)-5):]
		orig := recent[p.rng.Intn(len(recent))]
		r = p.reqs[orig]
		r.kind, r.orig = "repeat", orig
	case "template":
		r = p.template()
	case "model":
		r = p.model()
	default:
		r = p.batch()
	}
	if kind != "repeat" {
		p.fresh = append(p.fresh, len(p.reqs))
	}
	p.reqs = append(p.reqs, r)
}

// seed gives every fresh request its own solver seed, so no two fresh
// requests share a cache key and every hit is a planned repeat. Client 0's
// seeds are odd, client 1's even.
func (p *clientPlan) seed() int64 { return p.base + 1 + int64(p.id) + 2*int64(len(p.reqs)) }

// workload draws apps Table II benchmarks with Rodinia, Default or Optimized
// setup/teardown times.
func (p *clientPlan) workload(apps int) (hilp.Workload, wire.Workload) {
	bench := hilp.Benchmarks()
	w := hilp.Workload{Name: "custom"}
	var ww wire.Workload
	for _, i := range p.rng.Perm(len(bench))[:apps] {
		div := []float64{1, 5, 20}[p.rng.Intn(3)]
		w.Apps = append(w.Apps, hilp.Application{Bench: bench[i], SetupTeardownDiv: div})
		ww.Apps = append(ww.Apps, wire.App{Bench: bench[i].Abbrev, SetupTeardownDiv: div})
	}
	return w, ww
}

// Template and batch requests carry 5-7-app workloads (15-21 tasks), above
// the 12-task limit of the scheduler's exact stage. With 3 or 4 apps, that
// stage's default 500,000-node search takes up to 14 s on some SoCs, and a
// few such requests would decide a whole run's throughput; the model-mode
// requests exercise the exact stage instead. Solver settings are the
// defaults apart from hilp-dse's effort of 0.25.

func (p *clientPlan) template() serveReq {
	w, ww := p.workload(5 + p.tmpl%3)
	p.tmpl++
	space := hilp.DesignSpace(w, hilp.SpaceConfig{})
	soc := wire.FromSpec(space[p.rng.Intn(len(space))])
	cfg := wire.SolverConfig{Seed: p.seed(), Effort: evalEffort}
	return serveReq{kind: "template", path: "/v1/evaluate",
		value: &wire.EvaluateRequest{Workload: &ww, SoC: &soc, Solver: &cfg}}
}

func (p *clientPlan) model() serveReq {
	m := fig2Model(p.rng, 2+p.models%2)
	p.models++
	cfg := wire.SolverConfig{Seed: p.seed()}
	return serveReq{kind: "model", path: "/v1/evaluate",
		value: &wire.EvaluateRequest{Model: &m, StepSec: 1, Horizon: modelHorizon, Solver: &cfg}}
}

// modelHorizon bounds model-mode schedules (steps of 1 s); fig2-family
// models finish well inside it.
const modelHorizon = 100

// batch draws eight neighbouring SoCs of a 5-app workload: one CPU core
// count, every GPU size, with and without one DSA.
func (p *clientPlan) batch() serveReq {
	w, ww := p.workload(5)
	specs := hilp.DesignSpace(w, hilp.SpaceConfig{
		CPUCores: []int{[]int{1, 2, 4}[p.rng.Intn(3)]},
		MaxDSAs:  1,
		DSAPEs:   []int{[]int{1, 4, 16}[p.rng.Intn(3)]},
	})
	ws := make([]wire.SoC, len(specs))
	for i, s := range specs {
		ws[i] = wire.FromSpec(s)
	}
	cfg := wire.SolverConfig{Seed: p.seed(), Effort: evalEffort}
	return serveReq{kind: "batch", path: "/v1/batch",
		value: &wire.BatchRequest{Workload: &ww, Specs: ws, Solver: &cfg}}
}

// served is one request's outcome.
type served struct {
	id      string
	err     error
	status  int
	cache   string // X-HILP-Cache
	body    []byte
	latency float64
	rtSec   float64 // HTTP round trip alone
}

type serveBench struct {
	tr        *tracing
	plans     [serveClients]*clientPlan
	results   [serveClients][]served
	srv       *server.Server
	hs        *http.Server
	serveErr  chan error
	transport *http.Transport
	client    *http.Client
	url       string
}

func setupServe(e *env) (bench, error) {
	b := &serveBench{tr: e.tr}
	planned := e.planned(2000)
	for c := range b.plans {
		b.plans[c] = newClientPlan(e.seed, c)
		b.plans[c].at(planned - 1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cfg := server.Config{
		Workers:        2,
		RecentRequests: serveClients*planned + 64,
		DefaultTimeout: time.Hour,
		MaxTimeout:     time.Hour,
	}
	if e.tr != nil {
		// Without an Obs the server makes a metrics-only context of its own.
		cfg.Obs = &obs.Context{Tracer: e.tr.t, Metrics: obs.NewRegistry()}
	}
	b.srv = server.New(cfg)
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: time.Minute}
	b.serveErr = make(chan error, 1)
	go func() { b.serveErr <- b.hs.Serve(ln) }()
	b.transport = &http.Transport{MaxIdleConnsPerHost: serveClients}
	b.client = &http.Client{Transport: b.transport}
	b.url = "http://" + ln.Addr().String()

	resp, err := b.client.Get(b.url + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/healthz answered %d", resp.StatusCode)
		}
	}
	if err != nil {
		return nil, errors.Join(err, b.close())
	}
	return b, nil
}

func (b *serveBench) run(ctx context.Context, bud budget, l *ledger) {
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; bud.more(k); k++ {
				b.results[c] = append(b.results[c], b.send(ctx, c, k, b.plans[c].at(k)))
			}
		}(c)
	}
	wg.Wait()
	for _, list := range b.results {
		for _, s := range list {
			l.op(s.latency)
		}
	}
}

// send encodes and posts one request. Traced runs also time the canonical
// key the server derives from the request.
func (b *serveBench) send(ctx context.Context, client, k int, req serveReq) served {
	s := served{id: fmt.Sprintf("bench-%d-%d", client, k)}
	sp, c := b.tr.op()
	t0 := time.Now()
	var body []byte
	within(c, "wire.marshal", func() { body, s.err = wire.Marshal(req.value) })
	if b.tr != nil && s.err == nil {
		within(c, "wire.canonical_key", func() { _, s.err = wire.CanonicalKey(req.value) })
	}
	if s.err == nil {
		rsp := c.StartSpan("http.roundtrip")
		rt0 := time.Now()
		s.status, s.cache, s.body, s.err = b.post(ctx, req.path, s.id, body)
		s.rtSec = time.Since(rt0).Seconds()
		rsp.End()
	}
	sp.End()
	s.latency = time.Since(t0).Seconds()
	return s
}

func (b *serveBench) post(ctx context.Context, path, id string, body []byte) (int, string, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", id)
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-HILP-Cache"), out, err
}

// check verifies every response: 200, repeats served from the cache
// byte-identical to their originals, fresh requests solved cleanly.
func (b *serveBench) check(_ context.Context, l *ledger) {
	for c, list := range b.results {
		for k, s := range list {
			req := b.plans[c].reqs[k]
			switch {
			case s.err != nil:
				l.fail("serve %s: %v", s.id, s.err)
			case s.status != http.StatusOK:
				l.fail("serve %s %s: status %d: %s", s.id, req.kind, s.status, bytes.TrimSpace(s.body))
			case req.kind == "repeat":
				if s.cache != "hit" || !bytes.Equal(s.body, list[req.orig].body) {
					l.fail("serve %s: repeat of %s request %d answered %q, body identical %v",
						s.id, b.plans[c].reqs[req.orig].kind, req.orig, s.cache, bytes.Equal(s.body, list[req.orig].body))
				}
			case s.cache != "miss":
				l.fail("serve %s: fresh %s request answered %q", s.id, req.kind, s.cache)
			case req.kind == "batch":
				checkBatchResponse(s, l)
			default:
				checkEvaluateResponse(s, l)
			}
		}
	}
}

func checkEvaluateResponse(s served, l *ledger) {
	var resp wire.EvaluateResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		l.fail("serve %s: %v", s.id, err)
		return
	}
	r := resp.Result
	if r.Cancelled || r.Degraded || !(r.MakespanSec > 0) {
		l.fail("serve %s: makespan %gs cancelled=%v degraded=%v", s.id, r.MakespanSec, r.Cancelled, r.Degraded)
		return
	}
	l.certificate(r.Gap)
}

func checkBatchResponse(s served, l *ledger) {
	var resp wire.BatchResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		l.fail("serve %s: %v", s.id, err)
		return
	}
	st := resp.Stats
	if st.Points != len(resp.Points) || st.Solved+st.CacheHits+st.Pruned != st.Points {
		l.fail("serve %s: batch stats %+v do not partition %d points", s.id, st, len(resp.Points))
		return
	}
	// The points' certificates stay out of the quality metrics: with two
	// workers the engine's warm-start donors depend on completion order, so
	// they vary from run to run (see hilp.SolveBatch).
	for _, p := range resp.Points {
		if p.Error != "" || p.Cancelled || p.Degraded || !(p.Gap >= 0 && p.Gap < 1) {
			l.fail("serve %s %s: error %q cancelled=%v degraded=%v gap %v", s.id, p.Label, p.Error, p.Cancelled, p.Degraded, p.Gap)
		}
	}
}

// layers splits each request's round trip into the server's own stage
// times, read back from /debug/requests, and the transport remainder. The
// program's spans break server.solve down further (spanTimes.roots); a
// batch's sweep span is left out, as its points' solves have tracks of their
// own and run two at a time.
func (b *serveBench) layers(l *ledger, st *spanTimes) {
	byID := map[string]server.RequestSummary{}
	for _, r := range b.recentRequests(l) {
		byID[r.ID] = r
	}
	delete(st.self, "http.roundtrip")
	delete(st.self, "dse.sweep")
	stages := map[string]string{"validate": "server.validate", "cache-lookup": "server.cache_lookup",
		"schedule": "server.queue_wait", "solve": "server.solve", "encode": "server.encode"}
	var hits, misses []float64
	var requests, rejected, respBytes int
	for _, list := range b.results {
		for _, s := range list {
			requests++
			respBytes += len(s.body)
			switch {
			case s.status == http.StatusTooManyRequests:
				rejected++
			case s.cache == "hit":
				hits = append(hits, s.rtSec)
			case s.cache == "miss":
				misses = append(misses, s.rtSec)
			}
			if r, ok := byID[s.id]; ok {
				for stage, name := range stages {
					st.self[name] += r.Stages[stage]
				}
				st.self["server.transport"] += s.rtSec - r.DurationSec
			}
		}
	}
	n := float64(requests)
	l.setLayer("server.cache_hit_frac", ratio(float64(len(hits)), n))
	l.setLayer("server.rejected_frac", ratio(float64(rejected), n))
	if len(hits) > 0 && len(misses) > 0 {
		l.setLayer("server.hit_to_miss_latency", ratio(sum(hits)/float64(len(hits)), sum(misses)/float64(len(misses))))
	}
	l.setLayer("wire.response_bytes", ratio(float64(respBytes), n))
}

// recentRequests reads the server's per-request summaries.
func (b *serveBench) recentRequests(l *ledger) []server.RequestSummary {
	var dump struct {
		Requests []server.RequestSummary `json:"requests"`
	}
	resp, err := b.client.Get(b.url + "/debug/requests")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&dump)
		resp.Body.Close()
	}
	if err != nil {
		l.fail("serve: reading /debug/requests: %v", err)
	}
	return dump.Requests
}

func (b *serveBench) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if serr := <-b.serveErr; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	b.transport.CloseIdleConnections()
	return errors.Join(err, b.srv.Shutdown(ctx))
}
