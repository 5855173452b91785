package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"time"

	"repro"
	"repro/internal/ingest"
	"repro/internal/serve"
)

// span is one timed call into a layer, recorded by the benchmark around a
// call into a package's public function.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"` // request id; -1 during set-up and warm-up
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a request's root spans
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the traced run is single-threaded, so the
// open spans form a stack.
type tracer struct {
	epoch time.Time
	req   int
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Name: name, Req: t.req, ID: id, Parent: parent,
		Start: int64(time.Since(t.epoch))})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
	return time.Duration(s.End - s.Start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// allocs reads the process's cumulative heap allocation counters without
// stopping the world.
func allocs() (objects, bytes uint64) {
	s := []rtmetrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// mirror is one engine-backed copy of the serving stack.
type mirror struct {
	eng *rox.Engine
	h   http.Handler // mirror A only
	wal string
}

// newMirror loads the workload's corpus into a fresh engine configured like
// roxserve's defaults.
func newMirror(in *inputs, wal string) (*mirror, error) {
	eng := rox.NewEngine(rox.WithSampleSize(100), rox.WithSeed(1))
	if len(in.packed) > 0 {
		if err := eng.LoadCollectionPacked(coll, in.packed); err != nil {
			return nil, err
		}
	}
	for _, path := range in.xmlDocs {
		if err := eng.LoadFile(filepath.Base(path), path); err != nil {
			return nil, err
		}
	}
	m := &mirror{eng: eng, wal: wal}
	if in.writeRate > 0 {
		eng.Ingest().SetCompactAfter(in.compactAfter)
		if _, err := eng.OpenIngestDir(wal); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// query runs one request on the engine and drains it.
func (m *mirror) query(q string) ([]string, error) { return drain(m.eng, rox.Request{Query: q}) }

// commitFrag appends one fragment and commits it.
func (m *mirror) commitFrag(frag string) error {
	if err := m.eng.Append(coll, frag); err != nil {
		return err
	}
	_, err := m.eng.Commit(context.Background())
	return err
}

// serveA sends one request through the production HTTP handler into a
// recorder.
func serveA(h http.Handler, req *http.Request) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// layerSums accumulates over the measured requests.
type layerSums struct {
	queries, commits        int
	a, b, b0, c             time.Duration // per-mirror totals over queries
	responseBytes           int64
	allocObjs, allocBytes   uint64
	commitDur               []time.Duration // mirror B commits, in order
	compacting              []bool
	appendDur, walDur       time.Duration
	fragBytes               int64
	compactions             int
	snapshotBytes, walBytes int64
	mismatches              int
	firstErr                string
}

func (s *layerSums) fail(err error) {
	s.mismatches++
	if s.firstErr == "" {
		s.firstErr = err.Error()
	}
}

// runTraced replays the workload's seeded stream in-process through three
// mirrors (A: the HTTP handler, B: Engine.Execute, C: the decomposed
// pipeline) plus an untraced twin of B, and reports the per-layer metrics.
func runTraced(cfg config) (*report, error) {
	dir := filepath.Join(cfg.work, "runs", fmt.Sprintf("%s-seed%d-traced-%d", cfg.workload, cfg.seed, os.Getpid()))
	defer os.RemoveAll(dir)
	in, err := prepare(cfg.workload, cfg.seed, cfg.seconds, filepath.Join(dir, "corpus"), cfg.work)
	if err != nil {
		return nil, err
	}
	// One processor from here on, so mirror times add up: the self time of a
	// layer is its mirror's time minus the mirror below it.
	runtime.GOMAXPROCS(1)
	tr := &tracer{epoch: time.Now(), req: -1}
	mA, err := newMirror(in, filepath.Join(dir, "wal-a"))
	if err != nil {
		return nil, err
	}
	mA.h = serve.New(rox.NewPool(mA.eng, 1), serve.Config{})
	mB, err := newMirror(in, filepath.Join(dir, "wal-b"))
	if err != nil {
		return nil, err
	}
	mB0, err := newMirror(in, filepath.Join(dir, "wal-b0"))
	if err != nil {
		return nil, err
	}
	pc := newPipeline(tr)
	if err := pc.loadPacked(in.packed); err != nil {
		return nil, err
	}
	if err := pc.loadXML(in.xmlDocs); err != nil {
		return nil, err
	}
	var standalone *ingest.WAL
	if in.writeRate > 0 {
		// A standalone WAL beside mirror B's, fed the same batches: the
		// durability share of a commit.
		standalone, _, err = ingest.Open(filepath.Join(dir, "wal-standalone.log"))
		if err != nil {
			return nil, err
		}
		defer standalone.Close()
	}
	setupByName := spanTotals(tr.spans)

	s := &layerSums{}
	acked := 0
	readOne := func(r op, measured bool) {
		// A: the HTTP handler over its own engine.
		req := httptest.NewRequest(http.MethodGet, "/v1/query?q="+url.QueryEscape(r.query), nil)
		sp := tr.begin("serve.handler")
		rec := serveA(mA.h, req)
		da := tr.end(sp)
		var resp queryResponse
		if rec.Code != http.StatusOK {
			s.fail(fmt.Errorf("mirror A: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String())))
		} else if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			s.fail(fmt.Errorf("mirror A: %w", err))
		} else if err := in.oracle.check(r, resp.Items, acked, acked); err != nil {
			s.fail(fmt.Errorf("mirror A: %w", err))
		}
		// B: the engine, with allocation counters around it.
		o0, b0 := allocs()
		sp = tr.begin("rox.execute")
		itemsB, errB := mB.query(r.query)
		db := tr.end(sp)
		o1, b1 := allocs()
		if errB != nil {
			s.fail(fmt.Errorf("mirror B: %w", errB))
		} else if err := in.oracle.check(r, itemsB, acked, acked); err != nil {
			s.fail(fmt.Errorf("mirror B: %w", err))
		}
		// B0: the same engine path with no span recorded.
		t := time.Now()
		if _, err := mB0.query(r.query); err != nil {
			s.fail(fmt.Errorf("mirror B0: %w", err))
		}
		d0 := time.Since(t)
		// C: the decomposed pipeline.
		first := len(tr.spans)
		itemsC, errC := pc.query(r.query)
		var dc time.Duration
		for _, x := range tr.spans[first:] {
			if x.Parent == 0 && !strings.HasPrefix(x.Name, "bench.") {
				dc += time.Duration(x.End - x.Start)
			}
		}
		switch {
		case errC != nil:
			s.fail(fmt.Errorf("mirror C: %w", errC))
		case errB == nil && !slices.Equal(itemsB, itemsC):
			s.fail(fmt.Errorf("mirror C: %d items differ from mirror B's %d for %s", len(itemsC), len(itemsB), r.class))
		}
		if measured {
			s.queries++
			s.a += da
			s.b += db
			s.b0 += d0
			s.c += dc
			s.responseBytes += int64(rec.Body.Len())
			s.allocObjs += o1 - o0
			s.allocBytes += b1 - b0
		}
	}
	writeOne := func(i int) error {
		frag := in.frags[i]
		req := httptest.NewRequest(http.MethodPost, "/v1/collections/"+coll+"/ingest", strings.NewReader(frag))
		sp := tr.begin("serve.ingest")
		rec := serveA(mA.h, req)
		tr.end(sp)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("mirror A ingest: status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
		}
		before := mB.eng.Ingest().Stats().Compactions
		sp = tr.begin("ingest.append")
		err := mB.eng.Append(coll, frag)
		s.appendDur += tr.end(sp)
		if err != nil {
			return fmt.Errorf("mirror B append: %w", err)
		}
		sp = tr.begin("ingest.commit")
		_, err = mB.eng.Commit(context.Background())
		dc := tr.end(sp)
		if err != nil {
			return fmt.Errorf("mirror B commit: %w", err)
		}
		compacted := mB.eng.Ingest().Stats().Compactions > before
		if err := mB0.commitFrag(frag); err != nil {
			return fmt.Errorf("mirror B0: %w", err)
		}
		// The standalone WAL sees the record the engine logs for the same
		// batch (target = the shard the fragment routed to).
		col, _ := mB.eng.CollectionShards(coll)
		sp = tr.begin("ingest.wal_commit")
		err = standalone.LogAppend(ingest.Append{Target: col[i%len(col)], Frag: "ingest", XML: frag})
		if err == nil {
			_, err = standalone.LogCommit()
		}
		s.walDur += tr.end(sp)
		if err != nil {
			return fmt.Errorf("standalone wal: %w", err)
		}
		if err := pc.appendFrag(frag); err != nil {
			return fmt.Errorf("mirror C append: %w", err)
		}
		pc.commit()
		if compacted {
			pc.compact()
			s.compactions++
			s.snapshotBytes += snapshotBytes(mB.wal)
		}
		s.commits++
		s.commitDur = append(s.commitDur, dc)
		s.compacting = append(s.compacting, compacted)
		s.fragBytes += int64(len(frag))
		acked++
		return nil
	}

	// Warm-up, as the served run's set-up does.
	for _, r := range in.warmup {
		readOne(r, false)
	}
	cache0 := pc.cache.Counters().Snapshot()
	pc.c = pipelineCounters{}
	measuredFrom := len(tr.spans)

	// The measured stream: reads and commits merged in due-time order, for
	// as long as the run lasts.
	open := openPhase(cfg.seconds)
	nReads := int(in.readRate * open.Seconds())
	nWrites := 0
	if in.writeRate > 0 {
		nWrites = min(len(in.frags), int(in.writeRate*open.Seconds()))
	}
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	ri, wi := 0, 0
	for (ri < nReads || wi < nWrites) && time.Now().Before(deadline) {
		tr.req = ri + wi
		if wi < nWrites && (ri >= nReads || float64(wi)/in.writeRate <= float64(ri)/in.readRate) {
			if err := writeOne(wi); err != nil {
				return nil, err
			}
			wi++
			continue
		}
		readOne(in.reads[ri%len(in.reads)], true)
		ri++
	}
	cache1 := pc.cache.Counters().Snapshot()
	byName := spanTotals(tr.spans[measuredFrom:])
	tr.req = -1

	var replay time.Duration
	if in.writeRate > 0 {
		if err := mB.eng.Ingest().Close(); err != nil {
			return nil, err
		}
		s.walBytes = standalone.Size()
		mR, err := newMirror(&inputs{packed: in.packed, xmlDocs: in.xmlDocs}, "")
		if err != nil {
			return nil, err
		}
		sp := tr.begin("ingest.replay")
		_, err = mR.eng.OpenIngestDir(mB.wal)
		replay = tr.end(sp)
		if err != nil {
			return nil, err
		}
	}

	spanPath := filepath.Join(cfg.work, "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(spanPath); err != nil {
		return nil, err
	}
	return layerReport(in, s, pc, byName, setupByName, cache0, cache1, replay, spanPath), nil
}

// spanTotals totals span durations by name.
func spanTotals(spans []span) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, x := range spans {
		out[x.Name] += time.Duration(x.End - x.Start)
	}
	return out
}

// snapshotBytes sums the packed snapshot files currently in an ingest
// directory (a compaction writes one per compacted document).
func snapshotBytes(dir string) int64 {
	var n int64
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".roxd") {
			if info, err := e.Info(); err == nil {
				n += info.Size()
			}
		}
	}
	return n
}
