package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"flashsim/internal/machine"
	"flashsim/internal/runner"
	"flashsim/internal/serve"
	"flashsim/internal/serve/client"
)

// Shape of the in-process daemon, as flashd's single-replica default:
// a 2-worker pool over a bounded LRU store with a private cache
// directory, no ring, loopback HTTP.
const (
	poolWorkers   = 2
	storeMaxBytes = 256 << 20
	clients       = 2
)

// server is one in-process flashd replica and a client for it.
type server struct {
	dir       string
	srv       *serve.Server
	hs        *http.Server
	served    chan error
	transport *http.Transport
	client    *client.Client
}

// startServer boots a replica over a fresh store in a temporary
// directory under parent. With tr non-nil, the memo backend, the HTTP
// handler and the client transport are wrapped to time each layer.
func startServer(parent string, tr *serveTrace) (*server, error) {
	dir, err := os.MkdirTemp(parent, "store-")
	if err != nil {
		return nil, err
	}
	store, err := runner.NewBoundedStore(dir, storeMaxBytes)
	if err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("store: %w", err)
	}
	var backend runner.Backend = store
	if tr != nil {
		backend = &tracedBackend{inner: store, tr: tr}
	}
	srv := serve.New(serve.Options{Pool: runner.New(poolWorkers, backend)})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	handler := srv.Handler()
	transport := &http.Transport{MaxIdleConnsPerHost: clients}
	var rt http.RoundTripper = transport
	if tr != nil {
		handler = tr.wrapHandler(handler)
		rt = opTagger{transport}
	}
	s := &server{
		dir:       dir,
		srv:       srv,
		hs:        &http.Server{Handler: handler},
		served:    make(chan error, 1),
		transport: transport,
		client:    client.New("http://"+ln.Addr().String(), &http.Client{Transport: rt}),
	}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close drains the replica, stops its listener, waits for the serving
// goroutine and removes the store directory.
func (s *server) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	derr := s.srv.Drain(ctx)
	herr := s.hs.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	s.transport.CloseIdleConnections()
	return errors.Join(derr, herr, os.RemoveAll(s.dir))
}

// op is one client-observed job submission.
type op struct {
	id      int
	job     int // index into the plan's job list
	latency float64
	hit     bool // served from the memo store or joined an active run
	res     machine.Result
	err     error
}

// submit runs the given job indices through the replica from `clients`
// closed-loop clients (each waits for its reply before taking the next
// index) and returns one op per index, in index order.
func (s *server) submit(reqs []serve.RunRequest, jobs []int, firstID int) []op {
	out := make([]op, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				id := firstID + i
				ctx := context.WithValue(context.Background(), opKey{}, id)
				t0 := time.Now()
				resp, err := s.client.Run(ctx, reqs[jobs[i]])
				out[i] = op{
					id: id, job: jobs[i], latency: time.Since(t0).Seconds(),
					hit: resp.Job.Cached || resp.Job.Coalesced, res: resp.Result, err: err,
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// checkOps counts each op, and requires every result of a job to match
// the first result seen for it: a memo hit must equal the fresh run.
func checkOps(b *bench, ops []op, refs map[int]string) {
	for _, o := range ops {
		if o.err != nil {
			b.check(false, fmt.Sprintf("op %d: %v", o.id, o.err))
			continue
		}
		d := digest(o.res)
		ref, seen := refs[o.job]
		if !seen {
			refs[o.job] = d
			ref = d
		}
		b.check(d == ref, fmt.Sprintf("op %d (job %d, hit %v): digest %s != %s", o.id, o.job, o.hit, d, ref))
	}
}

// opKey carries an op id from the client call to the transport, which
// forwards it to the server in opHeader so client and handler timings
// of one request can be paired.
type opKey struct{}

const opHeader = "X-Perfbench-Op"

type opTagger struct{ next http.RoundTripper }

func (t opTagger) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(opKey{}).(int); ok {
		r = r.Clone(r.Context())
		r.Header.Set(opHeader, strconv.Itoa(id))
	}
	return t.next.RoundTrip(r)
}

// serveTrace accumulates the runner and serving layers' timings.
type serveTrace struct {
	getNS, putNS     atomic.Int64
	gets, puts, hits atomic.Int64
	mu               sync.Mutex
	handlerS         map[int]float64 // op id → handler seconds
}

func newServeTrace() *serveTrace { return &serveTrace{handlerS: map[int]float64{}} }

// tracedBackend times the pool's memo lookups and fills.
type tracedBackend struct {
	inner runner.Backend
	tr    *serveTrace
}

func (t *tracedBackend) Get(key string) (machine.Result, bool) {
	t0 := time.Now()
	res, ok := t.inner.Get(key)
	t.tr.getNS.Add(int64(time.Since(t0)))
	t.tr.gets.Add(1)
	if ok {
		t.tr.hits.Add(1)
	}
	return res, ok
}

func (t *tracedBackend) Put(key string, res machine.Result) {
	t0 := time.Now()
	t.inner.Put(key, res)
	t.tr.putNS.Add(int64(time.Since(t0)))
	t.tr.puts.Add(1)
}

func (t *serveTrace) wrapHandler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0).Seconds()
		if id, err := strconv.Atoi(r.Header.Get(opHeader)); err == nil {
			t.mu.Lock()
			t.handlerS[id] = d
			t.mu.Unlock()
		}
	})
}

// report records the runner, serve and client per-layer metrics over
// the given ops.
func (t *serveTrace) report(b *bench, ops []op) error {
	var handler, hitHandler, overhead, hitLat, runLat []float64
	t.mu.Lock()
	for _, o := range ops {
		if o.err != nil {
			continue
		}
		h, ok := t.handlerS[o.id]
		if !ok {
			t.mu.Unlock()
			return fmt.Errorf("op %d: no handler timing", o.id)
		}
		handler = append(handler, 1e3*h)
		overhead = append(overhead, 1e3*(o.latency-h))
		if o.hit {
			hitHandler = append(hitHandler, 1e3*h)
			hitLat = append(hitLat, 1e3*o.latency)
		} else {
			runLat = append(runLat, 1e3*o.latency)
		}
	}
	t.mu.Unlock()
	b.set("runner.get_s", float64(t.getNS.Load())/1e9)
	b.set("runner.gets", float64(t.gets.Load()))
	b.set("runner.put_s", float64(t.putNS.Load())/1e9)
	b.set("runner.puts", float64(t.puts.Load()))
	b.set("runner.hit_ratio", ratio(uint64(t.hits.Load()), uint64(t.gets.Load())))
	b.set("serve.handler_p50_ms", median(handler))
	b.set("client.overhead_p50_ms", median(overhead))
	b.set("client.hit_p50_ms", median(hitLat))
	b.set("client.run_p50_ms", median(runLat))
	for name, xs := range map[string][]float64{"serve.hit_handler_p99_ms": hitHandler, "client.hit_p99_ms": hitLat} {
		v, err := percentile(xs, 0.99)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		b.set(name, v)
	}
	return nil
}

// probeHits is how many memo hits serveProbe requests: enough for a
// p99 with ten samples beyond it.
const probeHits = 1100

// serveProbe serves one sim workload's job through a traced in-process
// replica: one fresh submission, then probeHits resubmissions from the
// closed-loop clients, each checked against the in-process reference
// digest. It prices the memo and serving layers for this
// workload's result; the simulation itself runs untraced in the pool.
func serveProbe(b *bench, req serve.RunRequest, ref string) error {
	tr := newServeTrace()
	s, err := startServer(b.workdir, tr)
	if err != nil {
		return err
	}
	reqs := []serve.RunRequest{req}
	ops := s.submit(reqs, []int{0}, 0)
	ops = append(ops, s.submit(reqs, make([]int, probeHits), 1)...)
	if err := s.close(); err != nil {
		return err
	}
	checkOps(b, ops, map[int]string{0: ref})
	return tr.report(b, ops)
}
