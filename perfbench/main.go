// Command perfbench is the repository benchmark. It writes a workload's
// corpus, draws its request streams from a seed, starts roxserve on loopback
// as its own process, drives it in turns open loop at a fixed rate and closed loop,
// checks every answer against an oracle computed before timing, kills and
// restarts the server, and prints each end-to-end metric with its unit. The
// last stdout line is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 1 it instead replays the same seeded stream in-process
// through three mirrors of the serving stack (the HTTP handler, the engine,
// and the engine's pipeline decomposed into its packages), records spans
// around every call into a layer, and prints the per-layer metrics. With
// --steady N it runs one workload N times with consecutive seeds and prints
// each metric's median, quartiles and spread next to its bound in
// BENCHMARK.json.
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash perfbench/run.sh --workload hot-serve --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/loadgen"
)

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	root     string
	serveBin string
	work     string
}

// result is the last stdout line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics, the human-readable lines printed before
// the result, and the run record written to the results directory.
type report struct {
	res   result
	lines []string
	info  map[string]any
}

func newReport() *report {
	return &report{res: result{Metrics: map[string]metric{}}, info: map[string]any{}}
}

// metric records a metric for the result line and prints it.
func (r *report) metric(name string, v float64, unit, note string) {
	r.res.Metrics[name] = metric{Value: finite(v), Unit: unit}
	r.note(name, v, unit, note)
}

// note prints a figure that is not part of the result line.
func (r *report) note(name string, v float64, unit, note string) {
	line := fmt.Sprintf("%-34s %14.6g %-9s", name, v, unit)
	if note != "" {
		line += "  " + note
	}
	r.lines = append(r.lines, line)
}

// finite caps +Inf (a failed request inside a percentile) so the result
// stays valid JSON; the run is already marked incorrect.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// phases is how many turns the open and the closed loop take in a served run.
const phases = 4

func nproc() int { return runtime.NumCPU() }

// openPhase is the open-loop share of a run; the closed loop gets the rest.
// A served run splits both into phases, taken in turns.
func openPhase(seconds int) time.Duration {
	return time.Duration(float64(seconds) * 0.8 * float64(time.Second))
}

func main() {
	var cfg config
	var steady int
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the request streams and the ingest fragments")
	flag.IntVar(&cfg.seconds, "seconds", 30, "measured seconds per run")
	trace := flag.Int("trace", 0, "1: in-process traced run printing the per-layer metrics")
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds BENCHMARK.json)")
	flag.StringVar(&cfg.serveBin, "serve-bin", "", "roxserve binary")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for corpora, logs, spans and results")
	flag.IntVar(&steady, "steady", 0, "run the workload this many times with consecutive seeds and print the spread of each metric")
	flag.Parse()
	cfg.trace = *trace == 1

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(2)
	}()

	err := func() error {
		if cfg.seconds < 1 {
			return fmt.Errorf("--seconds must be at least 1")
		}
		if steady > 0 {
			return runSteady(cfg, steady)
		}
		var rep *report
		var err error
		if cfg.trace {
			rep, err = runTraced(cfg)
		} else {
			rep, err = runServed(cfg)
		}
		if err != nil {
			return err
		}
		return rep.print(cfg)
	}()
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// print writes the human-readable lines, stores the run record, and ends
// stdout with the result line.
func (r *report) print(cfg config) error {
	r.info["workload"] = cfg.workload
	r.info["seed"] = cfg.seed
	r.info["seconds"] = cfg.seconds
	r.info["trace"] = cfg.trace
	r.info["go_version"] = runtime.Version()
	r.info["nproc"] = nproc()
	r.info["client_gomaxprocs"] = runtime.GOMAXPROCS(0)
	r.info["result"] = r.res
	dir := filepath.Join(cfg.work, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%v.json", cfg.workload, cfg.seed, cfg.trace))
	b, err := json.MarshalIndent(r.info, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("# %s seed=%d seconds=%d trace=%v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	keys := make([]string, 0, len(r.info))
	for k := range r.info {
		if k != "result" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		v, _ := json.Marshal(r.info[k])
		fmt.Printf("# %s: %s\n", k, v)
	}
	fmt.Printf("# run record: %s\n", path)
	for _, l := range r.lines {
		fmt.Println(l)
	}
	line, err := json.Marshal(r.res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func median(xs []float64) float64 { return quantile(append([]float64(nil), xs...), 0.5) }

// runServed is the untraced end-to-end run against a roxserve process.
func runServed(cfg config) (*report, error) {
	if cfg.serveBin == "" {
		return nil, fmt.Errorf("--serve-bin is required")
	}
	dir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-seed%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	defer stopAll() // before the directory goes, on every path
	in, err := prepare(cfg.workload, cfg.seed, cfg.seconds, filepath.Join(dir, "corpus"), cfg.work)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	np := nproc()
	open := openPhase(cfg.seconds)
	closed := time.Duration(cfg.seconds)*time.Second - open

	args := func(i int) []string {
		a := append([]string(nil), in.serverArgs...)
		if in.writeRate > 0 {
			a = append(a, "-waldir", filepath.Join(dir, fmt.Sprintf("wal-%d", i)),
				"-compact-after", fmt.Sprint(in.compactAfter))
		}
		return a
	}
	// Set-up, several times: exec until /v1/healthz answers, then the
	// warm-up requests. The last server is the one measured.
	setupT := &tally{}
	var setups []float64
	var srv *server
	var srvArgs []string
	const setupReps = 9
	for i := range setupReps {
		a := args(i)
		s, ready, err := startServer(cfg.serveBin, filepath.Join(dir, fmt.Sprintf("server-%d", i)), a, np)
		if err != nil {
			return nil, err
		}
		t := time.Now()
		c := newClient(s.base)
		for _, r := range in.warmup {
			st, err := readOp(c, in, &writer{}, r)
			setupT.record(r.class, 0, err, st)
		}
		c.close()
		setups = append(setups, (ready + time.Since(t)).Seconds())
		if i < setupReps-1 {
			s.kill()
		} else {
			srv, srvArgs = s, a
		}
	}

	// The open loop at the workload's fixed rate and the closed loop take
	// turns in phases, so that both are measured across the whole run: the
	// host's speed shifts within seconds, and a closed loop held only at the
	// end of the run would measure whichever state the host was in then.
	w := &writer{}
	reads := &tally{}
	commits := &tally{}
	closedT := &tally{}
	readConns := np
	if in.writeRate > 0 {
		readConns = max(1, np-1)
	}
	var conns []*client
	for range readConns {
		conns = append(conns, newClient(srv.base))
	}
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	steal0, total0 := cpuTicks()
	// The writer posts the fragments in order at its fixed rate on its own
	// connection for the length of the run, so the reads of both loops meet
	// commits and compactions, and every run ends on the same fragment.
	var pops []*arrivals
	var writerDone sync.WaitGroup
	if in.writeRate > 0 {
		wc := newClient(srv.base)
		defer wc.close()
		p := &arrivals{
			rate: in.writeRate, n: min(len(in.frags), int(in.writeRate*float64(cfg.seconds))), conns: []*client{wc}, out: commits,
			run: func(c *client, i int) (string, *queryStats, error) {
				w.sent.Add(1)
				err := c.ingest(in.frags[i])
				if err == nil {
					w.acked.Add(1)
				}
				return "commit", nil, err
			},
		}
		pops = append(pops, p)
		writerDone.Add(1)
		go func() {
			defer writerDone.Done()
			openLoop([]*arrivals{p})
		}()
	}
	// Both loops walk one read stream; next is the position in it.
	var next atomic.Int64
	perPhase := int(in.readRate*open.Seconds()) / phases
	var windows []float64
	for range phases {
		first := int(next.Add(int64(perPhase))) - perPhase
		p := &arrivals{
			rate: in.readRate, n: perPhase, conns: conns, out: reads,
			run: func(c *client, i int) (string, *queryStats, error) {
				r := in.reads[(first+i)%len(in.reads)]
				st, err := readOp(c, in, w, r)
				return r.class, st, err
			},
		}
		pops = append(pops, p)
		openLoop([]*arrivals{p})
		windows = append(windows, closedLoop(conns, in, w, closed/phases, &next, closedT)...)
	}
	writerDone.Wait()
	steal1, total1 := cpuTicks()
	qps := quantile(windows, 0.5)
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}

	// Restart: SIGKILL, exec on the same corpus (and ingest directory), ready
	// once a fresh connection gets verified answers reflecting every
	// acknowledged fragment.
	acked := int(w.acked.Load())
	done := &writer{}
	done.sent.Store(int64(acked))
	done.acked.Store(int64(acked))
	const restartReps = 15
	restartT := &tally{}
	var restarts []float64
	for i := range restartReps {
		// Restarts are spread over a few seconds, so that the fastest one
		// (see restart_s below) is taken over more than one state of the host.
		if i > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		t := time.Now()
		srv.kill()
		s, _, err := startServer(cfg.serveBin, filepath.Join(dir, fmt.Sprintf("restart-%d", i)), srvArgs, np)
		if err != nil {
			return nil, err
		}
		srv = s
		c := newClient(s.base)
		for _, r := range in.check {
			st, err := readOp(c, in, done, r)
			restartT.record(r.class, 0, err, st)
		}
		c.close()
		restarts = append(restarts, time.Since(t).Seconds())
	}
	srv.kill()

	// Report.
	n := len(reads.latMS)
	p99note := fmt.Sprintf("n=%d, %d beyond", n, beyond(n, 0.99))
	if beyond(n, 0.99) < 10 {
		p99note += " (fewer than 10 samples beyond p99: treat as unresolved)"
	}
	rep.metric("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups %.4g", setupReps, setups))
	rep.metric("query_p50_ms", quantile(reads.latMS, 0.5), "ms", fmt.Sprintf("n=%d, open loop %.0f/s", n, in.readRate))
	rep.metric("query_p99_ms", quantile(reads.latMS, 0.99), "ms", p99note)
	qpsNote := fmt.Sprintf("closed loop, %d clients, %d verified, median of %d windows in %d phases", readConns, closedT.completed, len(windows), phases)
	if in.writeRate > 0 {
		qpsNote += fmt.Sprintf(", commits beside them at %.0f/s", in.writeRate)
	}
	rep.metric("query_throughput_qps", qps, "queries/s", qpsNote)
	// A restart of a packed corpus lasts tens of milliseconds, the length of
	// the host's CPU-steal bursts; the fastest of several is the one no burst
	// hit, so it moves with the program, not with the neighbours.
	rep.metric("restart_s", slices.Min(restarts), "s", fmt.Sprintf("fastest of %d restarts %.4g", len(restarts), restarts))
	rep.metric("peak_rss_mb", rss, "MB", "server VmHWM before the kill")
	if in.writeRate > 0 {
		m := len(commits.latMS)
		rep.note("commit_p50_ms", quantile(commits.latMS, 0.5), "ms", fmt.Sprintf("n=%d, open loop %.0f/s, fsync per commit", m, in.writeRate))
		rep.note("commit_p99_ms", quantile(commits.latMS, 0.99), "ms", fmt.Sprintf("n=%d, %d beyond", m, beyond(m, 0.99)))
	}
	all := []*tally{setupT, reads, commits, closedT, restartT}
	attempted, failures := 0, 0
	var firstErr string
	for _, t := range all {
		attempted += t.attempted
		failures += t.failures()
		if firstErr == "" {
			firstErr = t.firstErr
		}
	}
	rep.note("error_ratio", float64(failures)/float64(max(attempted, 1)), "fraction",
		fmt.Sprintf("%d of %d operations failed, wrong, refused or truncated", failures, attempted))
	if firstErr != "" {
		rep.lines = append(rep.lines, "first failure: "+firstErr)
	}
	var lag loadgen.Histogram
	for _, p := range pops {
		lag.Merge(&p.lag)
	}
	if total1 > total0 {
		steal := float64(steal1-steal0) / float64(total1-total0)
		rep.note("host_steal_share", steal, "fraction", "CPU time the hypervisor gave to other guests while timing")
		rep.info["host_steal_share"] = steal
	}
	rep.note("send_lag_max_ms", float64(lag.Max())/1e6, "ms", "how late the generator enqueued an arrival")
	rep.note("send_lag_p99_ms", float64(lag.Quantile(0.99))/1e6, "ms", fmt.Sprintf("n=%d", lag.Count()))
	rs := reads.sums
	q := float64(max(reads.completed, 1))
	rep.note("exec_tuples_per_query", float64(rs.ExecTuples)/q, "tuples", "from response stats, open loop")
	rep.note("sample_tuples_per_query", float64(rs.SampleTuples)/q, "tuples", "")
	rep.note("cumulative_intermediate_per_query", float64(rs.CumulativeIntermediate)/q, "rows", "")
	rep.note("scanned_per_query", float64(rs.Scanned)/q, "rows", "")
	rep.note("cache_hit_ratio", float64(reads.hits)/q, "fraction", "")

	rep.res.Attempted = attempted
	rep.res.Failed = failures
	rep.res.Correct = failures == 0
	flush := "none (read-only workload)"
	if in.writeRate > 0 {
		flush = fmt.Sprintf("fsync per commit (-waldir), -compact-after %d", in.compactAfter)
	}
	rep.info["server_gomaxprocs"] = np
	rep.info["rates"] = map[string]float64{"read_per_s": in.readRate, "commit_per_s": in.writeRate}
	rep.info["connections"] = map[string]int{"open_loop": readConns + btoi(in.writeRate > 0), "closed_loop": readConns + btoi(in.writeRate > 0)}
	rep.info["corpus"] = map[string]any{"nodes": in.nodes, "bytes": in.bytes,
		"files": len(in.packed) + len(in.xmlDocs)}
	rep.info["flush_policy"] = flush
	rep.info["samples"] = map[string]int{"query": n, "commit": len(commits.latMS),
		"closed_loop": closedT.attempted, "setup": setupReps, "restart": len(restarts)}
	rep.info["classes"] = classStats(reads)
	rep.info["span_file"] = "none (untraced run; --trace 1 writes spans)"
	rep.info["restart_note"] = "SIGKILL leaves the OS page cache intact, so the restart checks the WAL protocol, not the storage device"
	rep.info["failures"] = map[string]int{"failed": countKind(all, failed), "refused": countKind(all, refused),
		"truncated": countKind(all, truncated), "wrong": countKind(all, wrong)}
	return rep, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// countKind totals one failure kind over the tallies.
func countKind(ts []*tally, kind int) int {
	n := 0
	for _, t := range ts {
		n += t.kinds[kind]
	}
	return n
}

// classStats summarizes each query class of a tally with its sample count.
func classStats(t *tally) map[string]map[string]float64 {
	out := map[string]map[string]float64{}
	for c, xs := range t.byClass {
		out[c] = map[string]float64{"n": float64(len(xs)),
			"p50_ms": finite(quantile(xs, 0.5)), "p99_ms": finite(quantile(xs, 0.99))}
	}
	return out
}
