package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/loadgen"
)

// client is one keep-alive HTTP connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// queryStats is the part of a /v1/query response's stats the benchmark sums.
type queryStats struct {
	Rows                   int   `json:"rows"`
	Scanned                int   `json:"scanned"`
	ExecTuples             int64 `json:"exec_tuples"`
	SampleTuples           int64 `json:"sample_tuples"`
	CumulativeIntermediate int64 `json:"cumulative_intermediate"`
	CacheHit               bool  `json:"cache_hit"`
}

type queryResponse struct {
	Items []string   `json:"items"`
	Stats queryStats `json:"stats"`
}

// Failure kinds. Every one counts as a miss of any latency limit (+Inf) and
// in the error ratio.
const (
	okOutcome = iota
	failed    // transport error or server error
	refused   // the server declined (4xx, 503)
	truncated // the body ended early or did not parse
	wrong     // the answer disagrees with the oracle
)

var kindNames = map[int]string{failed: "failed", refused: "refused", truncated: "truncated", wrong: "wrong"}

// outcomeError carries a failure kind.
type outcomeError struct {
	kind int
	err  error
}

func (e *outcomeError) Error() string { return kindNames[e.kind] + ": " + e.err.Error() }

func kindOf(err error) int {
	var oe *outcomeError
	if errors.As(err, &oe) {
		return oe.kind
	}
	return failed
}

// do sends one request and decodes a JSON reply into out.
func (c *client) do(req *http.Request, out any) (int, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, &outcomeError{failed, err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return len(body), &outcomeError{truncated, err}
	}
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusServiceUnavailable || resp.StatusCode == http.StatusTooManyRequests ||
		(resp.StatusCode >= 400 && resp.StatusCode < 500):
		return len(body), &outcomeError{refused, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	default:
		return len(body), &outcomeError{failed, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))}
	}
	if err := json.Unmarshal(body, out); err != nil {
		return len(body), &outcomeError{truncated, err}
	}
	return len(body), nil
}

// query runs one buffered /v1/query request.
func (c *client) query(q string) (*queryResponse, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/query?q="+url.QueryEscape(q), nil)
	if err != nil {
		return nil, err
	}
	var out queryResponse
	if _, err := c.do(req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ingest POSTs one fragment to the collection; the server appends and
// commits it as one batch.
func (c *client) ingest(frag string) error {
	req, err := http.NewRequest(http.MethodPost, c.base+"/v1/collections/"+coll+"/ingest", strings.NewReader(frag))
	if err != nil {
		return err
	}
	var out struct {
		Status string `json:"status"`
	}
	if _, err := c.do(req, &out); err != nil {
		return err
	}
	if out.Status != "committed" {
		return &outcomeError{failed, fmt.Errorf("ingest status %q", out.Status)}
	}
	return nil
}

// tally accumulates the outcomes of one request population.
type tally struct {
	mu        sync.Mutex
	latMS     []float64 // due-to-done latency; failures are +Inf
	attempted int
	kinds     [wrong + 1]int
	firstErr  string
	sums      queryStats // summed counters of successful queries
	hits      int
	completed int
	byClass   map[string][]float64 // latencies per query class
}

func (t *tally) record(class string, lat time.Duration, err error, st *queryStats) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if t.byClass == nil {
		t.byClass = map[string][]float64{}
	}
	v := math.Inf(1)
	if err == nil {
		v = float64(lat) / 1e6
	}
	t.byClass[class] = append(t.byClass[class], v)
	if err != nil {
		k := kindOf(err)
		t.kinds[k]++
		if t.firstErr == "" {
			t.firstErr = err.Error()
		}
		t.latMS = append(t.latMS, math.Inf(1))
		return
	}
	t.completed++
	t.latMS = append(t.latMS, float64(lat)/1e6)
	if st != nil {
		t.sums.Rows += st.Rows
		t.sums.Scanned += st.Scanned
		t.sums.ExecTuples += st.ExecTuples
		t.sums.SampleTuples += st.SampleTuples
		t.sums.CumulativeIntermediate += st.CumulativeIntermediate
		if st.CacheHit {
			t.hits++
		}
	}
}

func (t *tally) failures() int {
	n := 0
	for _, k := range t.kinds[1:] {
		n += k
	}
	return n
}

// quantile is the linearly interpolated q-quantile of the samples (sorted
// in place); +Inf samples sort last.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	if math.IsInf(xs[lo+1], 1) {
		return xs[lo+1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// beyond counts the samples strictly above the q-quantile's rank.
func beyond(n int, q float64) int { return n - int(math.Ceil(q*float64(n))) }

// writer tracks the ingest stream's progress for the read oracle.
type writer struct {
	sent  atomic.Int64 // fragments whose POST has started
	acked atomic.Int64 // fragments committed and acknowledged
}

// readOp runs one read on c and checks its answer.
func readOp(c *client, in *inputs, w *writer, r op) (*queryStats, error) {
	lo := int(w.acked.Load())
	resp, err := c.query(r.query)
	if err != nil {
		return nil, err
	}
	hi := int(w.sent.Load())
	if err := in.oracle.check(r, resp.Items, lo, hi); err != nil {
		return nil, &outcomeError{wrong, err}
	}
	return &resp.Stats, nil
}

// arrivals is one open-loop population: n requests due at a fixed rate,
// queued on its own keep-alive connections.
type arrivals struct {
	rate  float64
	n     int
	conns []*client
	run   func(c *client, i int) (string, *queryStats, error)
	out   *tally
	lag   loadgen.Histogram // how late the generator enqueued each arrival
}

// openLoop drives every population concurrently from one start time. Each
// request is timed from its due time, so a stall delays the requests queued
// behind it and shows in their latency.
func openLoop(pops []*arrivals) {
	start := time.Now().Add(20 * time.Millisecond)
	var wg sync.WaitGroup
	for _, p := range pops {
		type arrival struct {
			i   int
			due time.Time
		}
		// Sized to every arrival, so the generator never waits for a busy
		// connection: a stalled server shows as latency, not as a late send.
		queue := make(chan arrival, p.n)
		for _, c := range p.conns {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for a := range queue {
					class, st, err := p.run(c, a.i)
					p.out.record(class, time.Since(a.due), err, st)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(queue)
			for i := range p.n {
				due := start.Add(time.Duration(float64(i) / p.rate * float64(time.Second)))
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				p.lag.Record(int64(time.Since(due)))
				queue <- arrival{i, due}
			}
		}()
	}
	wg.Wait()
}

// windowsPerPhase is how many equal windows each closed-loop phase is cut
// into; the reported throughput is the median over all windows of a run, so
// a short stall of the host moves one window, not the figure.
const windowsPerPhase = 3

// closedLoop runs the read stream from next on every connection back to
// back for d and returns each window's verified completions per second.
func closedLoop(conns []*client, in *inputs, w *writer, d time.Duration, next *atomic.Int64, out *tally) []float64 {
	var done []time.Time
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				r := in.reads[int(next.Add(1)-1)%len(in.reads)]
				t := time.Now()
				st, err := readOp(c, in, w, r)
				out.record(r.class, time.Since(t), err, st)
				if err == nil {
					mu.Lock()
					done = append(done, time.Now())
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	width := d / windowsPerPhase
	counts := make([]float64, windowsPerPhase)
	for _, t := range done {
		if k := int(t.Sub(start) / width); k < windowsPerPhase {
			counts[k]++
		}
	}
	for k := range counts {
		counts[k] /= width.Seconds()
	}
	return counts
}
