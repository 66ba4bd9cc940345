package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"fpint/internal/codegen"
	"fpint/internal/obs"
	"fpint/internal/service"
	"fpint/internal/sim"
	"fpint/internal/uarch"
)

// serveConns is the number of client connections, each a closed loop.
const serveConns = 2

// The make-up of one serve round, taken from the repository's own load
// generator and its recorded run. The fresh jobs split in equal thirds
// over the three job endpoints, with scheme, machine and timing mode drawn
// uniformly and analysis left at its default (off), as the valid jobs of
// internal/service/loadgen are. The repeats make about half of the valid
// requests (20 of 38) cache hits, as in the fpiload run EXPERIMENTS.md
// records (valid jobs hit the cache at 51%). The optimal partition jobs
// are one request in twenty. Every round attempts the same number of each
// kind, so failed ops are the same share of attempted ops in every run.
const (
	serveFreshPerKind = 6  // compile, partition and simulate jobs each
	serveRepeats      = 20 // exact re-sends of an earlier request of the round
	serveOptimal      = 2  // partition requests under the optimal scheme
)

var (
	serveGreedy  = []string{"none", "basic", "advanced", "balanced"}
	serveTimings = []string{"functional", "fast", "detailed"}
	serveConfigs = []string{"4way", "8way"}
)

// serveReq is one HTTP request of a round.
type serveReq struct {
	path       string
	req        service.Request
	body       []byte
	prog       *program
	expectFail bool // a request the daemon is known to refuse
}

type serveWorkload struct {
	progs  []program
	rng    *rand.Rand
	srv    *service.Server
	http   *http.Server
	served chan struct{}
	base   string
	// clients holds one single-connection client per closed loop.
	clients []*http.Client

	mu sync.Mutex
	// Hashes of the response bodies, "cached" removed, per job key.
	computedBodies map[string]map[[32]byte]bool
	cachedBodies   map[string][][32]byte
	accepted       int // responses carrying a job key
	computed       int // … of which not served from the cache
	hitMS          []float64
	missMS         []float64
	respBytes      []float64
	received       int
	// replays are the jobs the daemon computed in traced rounds, replayed
	// after the rounds on warm machines, one per configuration, as the
	// daemon's workers keep them.
	replays  []replayJob
	machines map[string]*uarch.Machine
}

// replayJob is a computed request and the op ID of its request span.
type replayJob struct {
	op int
	q  *serveReq
}

// setupServe starts an in-process fpintd with its default options on a
// loopback listener, loads the testdata programs with their Go-native
// references, and warms the daemon up.
func setupServe(seed int64) (*serveWorkload, error) {
	progs, err := loadTestdata()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serveWorkload{progs: progs, rng: rand.New(rand.NewSource(seed)),
		srv: service.New(service.Options{}), served: make(chan struct{}),
		computedBodies: map[string]map[[32]byte]bool{}, cachedBodies: map[string][][32]byte{},
		clients: newClients(),
		base:    "http://" + ln.Addr().String()}
	w.http = &http.Server{Handler: w.srv.Handler()}
	go func() {
		defer close(w.served)
		w.http.Serve(ln) // returns http.ErrServerClosed on close
	}()
	if err := w.warmUp(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// close drains the daemon, stops the listener and waits for it.
func (w *serveWorkload) close() {
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.srv.Drain()
	w.http.Shutdown(context.Background())
	<-w.served
}

// buildRound draws one round's requests. Each fresh request's source
// carries a comment naming its round and slot, so it is a new cache key;
// the repeats re-send an earlier request of the same round byte for byte.
func (w *serveWorkload) buildRound(r int) []*serveReq {
	var fresh []*serveReq
	add := func(path string, req service.Request, p *program, expectFail bool) {
		req.Source = fmt.Sprintf("// round %d request %d\n%s", r, len(fresh), p.Src)
		fresh = append(fresh, &serveReq{path: path, req: req, prog: p, expectFail: expectFail})
	}
	pick := func(xs []string) string { return xs[w.rng.Intn(len(xs))] }
	prog := func() *program { return &w.progs[w.rng.Intn(len(w.progs))] }
	for i := 0; i < serveFreshPerKind; i++ {
		add("/v1/compile", service.Request{Scheme: pick(serveGreedy)}, prog(), false)
		add("/v1/partition", service.Request{Scheme: pick(serveGreedy)}, prog(), false)
		add("/v1/simulate", service.Request{Scheme: pick(serveGreedy), Timing: pick(serveTimings), Config: pick(serveConfigs)}, prog(), false)
	}
	for i := 0; i < serveOptimal; i++ {
		add("/v1/partition", service.Request{Scheme: "optimal"}, prog(), true)
	}
	for _, q := range fresh {
		q.body, _ = json.Marshal(q.req) // a Request always marshals
	}
	order := make([]*serveReq, 0, len(fresh)+serveRepeats)
	for _, i := range w.rng.Perm(len(fresh)) {
		order = append(order, fresh[i])
	}
	for k := 0; k < serveRepeats; k++ {
		var at int
		for {
			at = w.rng.Intn(len(order))
			if !order[at].expectFail {
				break
			}
		}
		pos := at + 1 + w.rng.Intn(len(order)-at)
		order = append(order[:pos], append([]*serveReq{order[at]}, order[pos:]...)...)
	}
	return order
}

// round sends one round over serveConns closed-loop connections.
func (w *serveWorkload) round(l *loop, tr *tracer, r int) { w.send(l, tr, w.buildRound(r)) }

// warmUp finishes the daemon's lazy set-up before the timed phase: one
// detailed simulate job per testdata program and machine builds the warm
// timing machines of the worker shards those jobs land on. The jobs are
// checked like any other; their client-side figures are discarded.
func (w *serveWorkload) warmUp() error {
	var reqs []*serveReq
	for i := range w.progs {
		p := &w.progs[i]
		for _, cfg := range serveConfigs {
			req := service.Request{Source: "// warm-up\n" + p.Src, Timing: "detailed", Config: cfg}
			body, _ := json.Marshal(req) // a Request always marshals
			reqs = append(reqs, &serveReq{path: "/v1/simulate", req: req, body: body, prog: p})
		}
	}
	l := &loop{}
	w.send(l, nil, reqs)
	w.hitMS, w.missMS, w.respBytes = nil, nil, nil
	if l.failed > 0 || len(l.problems) > 0 {
		return fmt.Errorf("warm-up: %d of %d jobs failed: %q", l.failed, l.attempted, l.problems)
	}
	return nil
}

// send runs reqs in order over the closed-loop connections.
func (w *serveWorkload) send(l *loop, tr *tracer, reqs []*serveReq) {
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(client *http.Client) {
			defer wg.Done()
			for {
				next.Lock()
				if i == len(reqs) {
					next.Unlock()
					return
				}
				q := reqs[i]
				i++
				next.Unlock()
				w.do(l, tr, client, q)
			}
		}(w.clients[c])
	}
	wg.Wait()
}

// do sends one request and checks the response.
func (w *serveWorkload) do(l *loop, tr *tracer, client *http.Client, q *serveReq) {
	op := tr.newOp()
	id := tr.begin(op, 0, spanRequest)
	start := time.Now()
	status, body, err := post(client, w.base+q.path, q.body)
	d := time.Since(start)
	tr.end(id)
	if err != nil {
		l.fail("transport error")
		l.wrong("%s: %v", q.path, err)
		return
	}
	var resp service.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		l.fail("malformed response")
		l.wrong("%s: status %d, body does not parse: %v", q.path, status, err)
		return
	}
	w.mu.Lock()
	w.received++
	if resp.Key != "" {
		w.accepted++
		if !resp.Cached {
			w.computed++
		}
	}
	w.mu.Unlock()
	if status != http.StatusOK {
		if q.expectFail {
			l.fail(fmt.Sprintf("HTTP %d %s", status, resp.Error))
			return
		}
		l.fail(fmt.Sprintf("HTTP %d", status))
		l.wrong("%s %s: HTTP %d: %s", q.path, q.req.Scheme, status, resp.Error)
		return
	}
	l.ok(d)
	w.check(l, q, &resp, body)
	w.mu.Lock()
	defer w.mu.Unlock()
	if tr != nil {
		// Client-side figures come from untraced rounds only.
		if !resp.Cached {
			w.replays = append(w.replays, replayJob{op, q})
		}
		return
	}
	if resp.Cached {
		w.hitMS = append(w.hitMS, float64(d.Nanoseconds())/1e6)
	} else {
		w.missMS = append(w.missMS, float64(d.Nanoseconds())/1e6)
	}
	w.respBytes = append(w.respBytes, float64(len(body)))
}

func post(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// check verifies a successful response: a simulate job's result against
// the reference, and its body, apart from the cached flag, for the
// end-of-phase cache check.
func (w *serveWorkload) check(l *loop, q *serveReq, resp *service.Response, body []byte) {
	switch {
	case q.path == "/v1/simulate" && resp.Simulate == nil,
		q.path == "/v1/compile" && resp.Compile == nil,
		q.path == "/v1/partition" && resp.Partition == nil:
		l.wrong("%s: response carries no %s document", q.path, resp.Kind)
		return
	}
	if resp.Simulate != nil {
		if err := checkRef(q.prog.Name+" "+q.path, q.prog.Ref, resp.Simulate.Exit, resp.Simulate.Output); err != nil {
			l.wrong("%v", err)
		}
	}
	norm, err := withoutCached(body)
	if err != nil {
		l.wrong("%s: %v", q.path, err)
		return
	}
	sum := sha256.Sum256(norm)
	w.mu.Lock()
	defer w.mu.Unlock()
	if resp.Cached {
		w.cachedBodies[resp.Key] = append(w.cachedBodies[resp.Key], sum)
		return
	}
	if w.computedBodies[resp.Key] == nil {
		w.computedBodies[resp.Key] = map[[32]byte]bool{}
	}
	w.computedBodies[resp.Key][sum] = true
}

// checkCache checks that every cached response equals, apart from the
// cached flag, an uncached response computed for the same key: the first
// one, or a later one where the daemon's bounded cache evicted the entry
// and computed it again. Compile reports carry pass timings, so two
// computations of one key differ.
func (w *serveWorkload) checkCache(l *loop) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for key, sums := range w.cachedBodies {
		for _, sum := range sums {
			if !w.computedBodies[key][sum] {
				l.wrong("cached response for key %.12s differs from every response computed for it", key)
			}
		}
	}
	w.cachedBodies = map[string][][32]byte{}
}

// withoutCached re-encodes a response document without its cached flag.
func withoutCached(body []byte) ([]byte, error) {
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, err
	}
	delete(doc, "cached")
	return json.Marshal(doc)
}

// checkStats compares the daemon's /statsz counters with what the client
// received: every response with a job key was accepted, and every one of
// those not served from the cache was a completed job.
func (w *serveWorkload) checkStats(l *loop) (shed float64) {
	resp, err := w.clients[0].Get(w.base + "/statsz")
	if err != nil {
		l.wrong("/statsz: %v", err)
		return 0
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		l.wrong("/statsz: %v", err)
		return 0
	}
	p := obs.PrefixService
	w.mu.Lock()
	defer w.mu.Unlock()
	if got := doc.Counters[p+obs.MetricServiceCompleted]; int(got) != w.computed {
		l.wrong("/statsz reports %d jobs completed, the client received %d computed responses", int(got), w.computed)
	}
	if got := doc.Counters[p+obs.MetricServiceAccepted]; int(got) != w.accepted {
		l.wrong("/statsz reports %d jobs accepted, the client received %d responses with a job key", int(got), w.accepted)
	}
	total := 0.0
	for k, v := range doc.Counters {
		if len(k) > len(p+obs.MetricServiceOutcomePrefix) && k[:len(p+obs.MetricServiceOutcomePrefix)] == p+obs.MetricServiceOutcomePrefix {
			total += v
		}
	}
	if int(total) != w.received {
		l.wrong("/statsz counts %d responses by outcome, the client received %d", int(total), w.received)
	}
	return doc.Counters[p+obs.MetricServiceShed]
}

// hitRatio reads the cache hit ratio from /statsz: hits over the jobs that
// reached the cache.
func (w *serveWorkload) hitRatio() float64 {
	resp, err := w.clients[0].Get(w.base + "/statsz")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	var doc struct {
		Counters map[string]float64 `json:"counters"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return 0
	}
	p := obs.PrefixService
	hits, misses := doc.Counters[p+obs.MetricServiceCacheHits], doc.Counters[p+obs.MetricServiceCacheMisses]
	if hits+misses == 0 {
		return 0
	}
	return hits / (hits + misses)
}

// newClients makes one single-connection client per closed loop.
func newClients() []*http.Client {
	cs := make([]*http.Client, serveConns)
	for i := range cs {
		cs[i] = &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	}
	return cs
}

// replay re-runs, after the traced rounds, every job the daemon computed
// in them as the public calls its worker makes, so the traced run can
// split a request into layers without the replays slowing the rounds
// down.
func (w *serveWorkload) replay(l *loop, tr *tracer) {
	if w.machines == nil {
		w.machines = map[string]*uarch.Machine{}
		for _, cfg := range machines() {
			w.machines[cfgKey(cfg)] = uarch.NewMachine(cfg)
		}
	}
	for _, j := range w.replays {
		if err := w.replayJob(tr, j.op, j.q); err != nil {
			l.wrong("%s replay: %v", j.q.path, err)
		}
	}
	w.replays = nil
}

// replayJob replays one computed job. The timing runs reuse the warm
// machines, so a serve run records no machine set-up spans.
func (w *serveWorkload) replayJob(tr *tracer, op int, q *serveReq) error {
	root := tr.begin(op, 0, spanOp)
	defer tr.end(root)
	mod, prof, err := frontendTraced(tr, op, root, q.req.Source, 0)
	if err != nil {
		return err
	}
	opts := codegen.Options{Profile: prof.Profile}
	for i, s := range serveGreedy {
		if s == q.req.Scheme {
			opts.Scheme = codegen.Scheme(i)
		}
	}
	res, err := compileTraced(tr, op, root, mod, opts, 0, true)
	if err != nil || q.path != "/v1/simulate" {
		return err
	}
	if q.req.Timing == "functional" {
		_, err = functionalTraced(tr, op, root, res.Prog, 0, false)
		return err
	}
	m := w.machines[q.req.Config]
	name := spanDetailed + q.req.Config
	if q.req.Timing == "fast" {
		name = spanSampled + q.req.Config
	}
	id := tr.begin(op, root, name)
	var out *sim.Result
	if q.req.Timing == "fast" {
		out, _, err = m.RunSampled(res.Prog, uarch.DefaultSampleConfig())
	} else {
		out, _, err = m.Run(res.Prog)
	}
	tr.end(id)
	if err == nil {
		tr.count(cntInstsOf+name, float64(out.Stats.Total))
	}
	return err
}
