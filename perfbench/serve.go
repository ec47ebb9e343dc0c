package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/shard"
)

// Serving probe parameters. LAYERS.md gives the basis of each: the
// recorded reproload configurations, this commit's measured capacity,
// or, where neither exists, the stated assumption.
const (
	hotPool    = 8     // hot sequences (reproload -seqs default, BENCH_PR3)
	missRate   = 3.0   // never-seen sequences per second (BENCH_PR8: 23 misses in 8 s)
	dupEvery   = 3     // every third never-seen request gets a duplicate in flight
	serveRate  = 800.0 // requests per second, over the router's hot-key threshold
	shardCache = 10    // LRU entries per shard: an assumption, so a probe evicts
	clients    = 2     // client goroutines and connections (nproc here)
)

// serveEnv is a router in front of two shards, each on its own loopback
// listener, plus the benchmark's client.
type serveEnv struct {
	shards  []*serve.Server
	servers []*http.Server
	router  *shard.Router
	url     string
	client  *http.Client
	hot     []*protein
	stream  []*protein // never-seen sequences, consumed in order
	next    int        // first unused stream entry
	// Shard handler time per request ID, and the switch that turns the
	// wrappers' recording on once the warm-up is done.
	tr      *tracer
	tracing atomic.Bool
	mu      sync.Mutex
	inShard map[string]time.Duration
}

func (e *serveEnv) close() {
	for _, s := range e.servers {
		s.Close()
	}
	if e.router != nil {
		e.router.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, s := range e.shards {
		s.Drain(ctx) //nolint:errcheck // listeners are closed; nothing is queued
	}
	e.client.CloseIdleConnections()
}

// listen serves h on a fresh loopback port and returns its base URL.
func (e *serveEnv) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	e.servers = append(e.servers, srv)
	go srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	return "http://" + ln.Addr().String(), nil
}

// startServe builds the stack, then warms the hot pool on both shards
// (one goroutine each), so the probe starts with those entries cached
// wherever the router's hot-key fan-out sends them.
func startServe(seed uint64, tr *tracer) (*serveEnv, error) {
	all := famServe.generate(serveGens(seed))
	e := &serveEnv{hot: all[:hotPool], stream: all[hotPool:], tr: tr,
		inShard: map[string]time.Duration{},
		client: &http.Client{Timeout: 60 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}}
	var shardURLs []string
	for i := 0; i < 2; i++ {
		s := serve.New(serve.Config{Workers: 1, CacheEntries: shardCache})
		s.Start()
		e.shards = append(e.shards, s)
		u, err := e.listen(e.wrapShard(s.Handler()))
		if err != nil {
			e.close()
			return nil, err
		}
		shardURLs = append(shardURLs, u)
	}
	e.router = shard.New(shard.Config{Shards: shardURLs})
	e.router.Start()
	u, err := e.listen(e.wrapRouter(e.router.Handler()))
	if err != nil {
		e.close()
		return nil, err
	}
	e.url = u
	errs := make([]error, len(shardURLs))
	var wg sync.WaitGroup
	for k, su := range shardURLs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range e.hot {
				res, body := e.post(su, requestBody(fmt.Sprintf("warm%d", i), p))
				if res.err != nil || res.status != http.StatusOK {
					errs[k] = fmt.Errorf("warm-up request %d on shard %d: status %d: %v %.200s", i, k, res.status, res.err, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// attachRefs attaches the reference digest of every sequence the probe
// may send, before it starts.
func (e *serveEnv) attachRefs(r *run) error {
	computed, err := famServe.attachRefs(append(append([]*protein(nil), e.hot...), e.stream...))
	if err != nil {
		return err
	}
	r.note("pool %s hot %d stream %d, references computed %d", famServe.Name, len(e.hot), len(e.stream), computed)
	return nil
}

// serveGens orders the serving universe for a seed: the hot pool
// (generator seeds 1..hotPool), then the never-seen stream, shuffled by
// the seed.
func serveGens(seed uint64) []uint64 {
	rng := rand.New(rand.NewPCG(seed, uint64(famServe.Len)))
	var out []uint64
	for _, blk := range [][2]int{{0, hotPool}, {hotPool, famServe.Universe}} {
		lo, n := blk[0], blk[1]-blk[0]
		for _, i := range rng.Perm(n) {
			out = append(out, uint64(lo+i)+1)
		}
	}
	return out
}

// wrapShard times each request inside the shard's handler, keyed by the
// request ID, so the router hop can be separated from shard time.
func (e *serveEnv) wrapShard(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.tracing.Load() || r.URL.Path != "/v1/analyze" {
			h.ServeHTTP(w, r)
			return
		}
		// A body that fails to read reaches the shard truncated and is
		// rejected there, which the client counts as a failure.
		body, _ := io.ReadAll(r.Body)
		r.Body = io.NopCloser(bytes.NewReader(body))
		var id struct {
			ID string `json:"id"`
		}
		json.Unmarshal(body, &id) //nolint:errcheck // an unreadable body is the shard's to reject
		sp := e.tr.start("serve.Server.Handler", -1)
		h.ServeHTTP(w, r)
		d := e.tr.end(sp)
		e.mu.Lock()
		e.inShard[id.ID] = d
		e.mu.Unlock()
	})
}

func (e *serveEnv) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !e.tracing.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := e.tr.start("shard.Router.Handler", -1)
		h.ServeHTTP(w, r)
		e.tr.end(sp)
	})
}

// requestBody is a default /v1/analyze body: only the sequence and the
// number of tops are set.
func requestBody(id string, p *protein) []byte {
	// A struct of strings and ints always marshals.
	b, _ := json.Marshal(serve.Request{ID: id, Sequence: p.Residues,
		Params: serve.Params{Tops: famServe.Ref.NumTops}})
	return b
}

// reply is what the client saw for one request. The body itself is not
// kept: sum identifies its report payload, and the first body with each
// payload is kept aside for the check after timing.
type reply struct {
	status         int
	err            error
	cache          string // Response.Cache
	sum            uint64 // hash of the report payload
	flight         string
	queueNs, cpuNs int64
}

var (
	cacheField  = []byte(`"cache":"`)
	reportField = []byte(`"report":`)
	sumSeed     = maphash.MakeSeed()
)

// post sends one body to base and returns what came back.
func (e *serveEnv) post(base string, body []byte) (reply, []byte) {
	resp, err := e.client.Post(base+"/v1/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{err: err}, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	hdr := func(k string) int64 {
		v, _ := strconv.ParseInt(resp.Header.Get(k), 10, 64)
		return v
	}
	rep := reply{status: resp.StatusCode, err: err,
		flight:  resp.Header.Get("X-Router-Flight"),
		queueNs: hdr("X-Resource-Queue-Ns"), cpuNs: hdr("X-Resource-Cpu-Ns")}
	// Response fields come in a fixed order (id, cache, elapsed_ms,
	// report), so the cache outcome and the report payload are found
	// without decoding the body; the check decodes it in full later.
	if i := bytes.Index(b, cacheField); i >= 0 {
		rest := b[i+len(cacheField):]
		if j := bytes.IndexByte(rest, '"'); j >= 0 {
			rep.cache = string(rest[:j])
		}
	}
	if i := bytes.Index(b, reportField); i >= 0 {
		rep.sum = maphash.Bytes(sumSeed, b[i:])
	}
	return rep, b
}

// arrival is one scheduled request.
type arrival struct {
	due time.Duration // since the phase start
	p   *protein
}

// schedule draws the open-loop arrivals of a phase of length d at
// serveRate. The never-seen stream runs at missRate, evenly spaced;
// every dupEvery-th of its requests is followed 1 ms later by a
// duplicate that joins it in flight. The rest repeat the hot pool at
// uniformly random times (a Poisson process given its count).
func (e *serveEnv) schedule(seed uint64, d time.Duration) ([]arrival, error) {
	rng := rand.New(rand.NewPCG(seed, 0x5e77e))
	gap := time.Second * 1000 / time.Duration(1000*missRate)
	var out []arrival
	for i, due := 0, gap/2; due < d; i, due = i+1, due+gap {
		if e.next == len(e.stream) {
			return nil, fmt.Errorf("serving stream exhausted after %d sequences", e.next)
		}
		a := arrival{due: due, p: e.stream[e.next]}
		e.next++
		out = append(out, a)
		if i%dupEvery == 0 {
			out = append(out, arrival{due: due + time.Millisecond, p: a.p})
		}
	}
	for n := int(math.Round(serveRate*d.Seconds())) - len(out); n > 0; n-- {
		out = append(out, arrival{due: time.Duration(rng.Int64N(int64(d))), p: e.hot[rng.IntN(len(e.hot))]})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out, nil
}

// spinWindow is how early a sender wakes before a request is due, to
// yield in a loop for the rest of the wait.
const spinWindow = 100 * time.Microsecond

// sleepUntil blocks the calling goroutine until due (an offset from
// t0). It sleeps in the nanosleep system call rather than on a Go
// timer, because an idle Go runtime wakes its timers with millisecond
// granularity, which would add up to a millisecond of generator
// lateness to every request. It wakes spinWindow early and yields in a
// loop for the rest, so the wake-up of an idle CPU, which varies with
// the load of the host, is not charged to the request; a longer spin
// would hold a processor the stack needs and delay its network polling.
func sleepUntil(t0 time.Time, due time.Duration) {
	for {
		wait := due - spinWindow - time.Since(t0)
		if wait <= 0 {
			break
		}
		ts := syscall.NsecToTimespec(int64(wait))
		// An interrupted sleep (EINTR) is resumed by the loop.
		syscall.Nanosleep(&ts, nil) //nolint:errcheck
	}
	for time.Since(t0) < due {
		runtime.Gosched()
	}
}

// openLoop sends len(due) requests from `workers` goroutines. Each takes
// the next request in due order as soon as it is free, waits until the
// request is due, sends it and records when it went out and when the
// reply was complete, both as offsets from the phase start. A request
// is charged from its due time, so a stall delays every request queued
// behind it and shows in their latency and in the generator's lateness.
func openLoop(workers int, due []time.Duration, send func(i int)) (sent, done []time.Duration) {
	sent = make([]time.Duration, len(due))
	done = make([]time.Duration, len(due))
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					return
				}
				sleepUntil(t0, due[i])
				sent[i] = time.Since(t0)
				send(i)
				done[i] = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return sent, done
}

// phaseResult holds one open-loop phase.
type phaseResult struct {
	arr        []arrival
	ids        []string
	replies    []reply
	sent, done []time.Duration
	ok         []bool
}

func (ph *phaseResult) latency(i int) float64 { return ms(ph.done[i] - ph.arr[i].due) }
func (ph *phaseResult) late(i int) float64 {
	if d := ph.sent[i] - ph.arr[i].due; d > 0 {
		return ms(d)
	}
	return 0
}

// lateMax is how late, at most, the generator sent a request (ms).
func (ph *phaseResult) lateMax() float64 {
	m := 0.0
	for i := range ph.arr {
		m = max(m, ph.late(i))
	}
	return m
}

// payload names one distinct report a sequence was answered with.
type payload struct {
	gen uint64
	sum uint64
}

// runPhase sends a phase of length d, then checks every reply against
// its reference digest. Replies with the same report payload for the
// same sequence share one check, which decodes the first such body
// after timing.
func (e *serveEnv) runPhase(r *run, seed uint64, d time.Duration) (*phaseResult, error) {
	arr, err := e.schedule(seed, d)
	if err != nil {
		return nil, err
	}
	ph := &phaseResult{arr: arr, ids: make([]string, len(arr)),
		replies: make([]reply, len(arr)), ok: make([]bool, len(arr))}
	bodies := make([][]byte, len(arr))
	due := make([]time.Duration, len(arr))
	for i, a := range arr {
		ph.ids[i] = fmt.Sprintf("s%d-%d", seed, i)
		bodies[i] = requestBody(ph.ids[i], a.p)
		due[i] = a.due
	}
	var (
		mu    sync.Mutex
		first = map[payload][]byte{}
	)
	ph.sent, ph.done = openLoop(clients, due, func(i int) {
		sp := e.tr.start("client.request", -1)
		defer e.tr.end(sp)
		rep, body := e.post(e.url, bodies[i])
		ph.replies[i] = rep
		if rep.err == nil && rep.status == http.StatusOK {
			k := payload{arr[i].p.Gen, rep.sum}
			mu.Lock()
			if _, seen := first[k]; !seen {
				first[k] = body
			}
			mu.Unlock()
		}
	})
	verdict := map[payload]bool{}
	for k, body := range first {
		var resp serve.Response
		if err := json.Unmarshal(body, &resp); err != nil {
			continue
		}
		report, err := resp.DecodeReport()
		if err != nil {
			continue
		}
		verdict[k] = digest(report) == e.want(k.gen)
	}
	for i, rep := range ph.replies {
		r.Attempted++
		if rep.err != nil || rep.status != http.StatusOK {
			r.Failed++
			continue
		}
		good, decoded := verdict[payload{arr[i].p.Gen, rep.sum}]
		switch {
		case !decoded:
			r.Failed++
		case !good:
			r.Failed++
			r.Mismatched++
		default:
			ph.ok[i] = true
		}
	}
	return ph, nil
}

// want is the reference digest of the serving universe member gen.
func (e *serveEnv) want(gen uint64) string {
	for _, ps := range [][]*protein{e.hot, e.stream} {
		for _, p := range ps {
			if p.Gen == gen {
				return p.Want
			}
		}
	}
	return ""
}
