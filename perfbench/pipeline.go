package main

import (
	"fmt"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/plancache"
	"repro/internal/table"
	"repro/internal/xmltree"
	"repro/internal/xquery"
)

// pipeline is mirror C: the engine's query path decomposed into calls to
// its packages, over a catalog and a plan cache of its own, with a span
// around every call. It follows rox.Engine step for step (compile,
// fingerprint, per-shard cache lookup, ROX run or replay, tail, fold,
// serialization) so its items must equal the engine's; only the gather
// merge at the end is the benchmark's own, outside any layer span.
type pipeline struct {
	tr    *tracer
	cat   *plan.Catalog
	cache *plancache.Cache
	opts  core.Options
	seed  int64
	drift float64
	// Live-ingest replica: the same overlays the engine's Ingester keeps.
	overlays map[string]*overlay
	rr       int
	// mapped pins the packed base indices for the pipeline's lifetime. A
	// flattened overlay's dictionaries still point into the base's mapping,
	// which is unmapped once its document is unreachable; without the pin a
	// compaction here would read freed memory (the engine's own in-memory
	// compaction, without a WAL directory, has that defect; the served
	// workloads compact through -waldir, which re-maps a fresh snapshot).
	mapped []*index.Index

	// counters over the measured requests
	c pipelineCounters
}

type pipelineCounters struct {
	sampleTuples, execTuples, intermediate int64
	explorations                           int
	vertexNodes                            int64
	scanned, returned                      int64
	serializeBytes                         int64
	runs                                   int // core.Run calls
}

// overlay mirrors one document's ingest state between compactions.
type overlay struct {
	app    *xmltree.Appender
	baseIx *index.Index
	dirty  bool
	delta  bool
}

func newPipeline(tr *tracer) *pipeline {
	opts := core.DefaultOptions()
	return &pipeline{
		tr:       tr,
		cat:      plan.NewCatalog(),
		cache:    plancache.New(rox.DefaultPlanCacheSize),
		opts:     opts,
		seed:     1,
		drift:    rox.DefaultDriftRatio,
		overlays: map[string]*overlay{},
	}
}

// loadPacked registers packed shards of coll, timing the container open and
// the index attach separately.
func (p *pipeline) loadPacked(paths []string) error {
	for _, path := range paths {
		sp := p.tr.begin("xmltree.packed_open")
		pk, err := xmltree.OpenPackedFile(path)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		sp = p.tr.begin("index.build")
		ix, err := index.FromPacked(pk)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		p.cat.AddCollectionShard(coll, ix)
		p.mapped = append(p.mapped, ix)
	}
	return nil
}

// loadXML parses and indexes XML documents under their base names.
func (p *pipeline) loadXML(paths []string) error {
	for _, path := range paths {
		name := path[strings.LastIndex(path, "/")+1:]
		sp := p.tr.begin("xmltree.parse")
		d, err := xmltree.ParseFile(name, path)
		p.tr.end(sp)
		if err != nil {
			return err
		}
		sp = p.tr.begin("index.build")
		ix := index.New(d)
		p.tr.end(sp)
		p.cat.AddIndexed(ix)
	}
	return nil
}

// cacheKey is the engine's plan-cache key: the Join Graph fingerprint
// extended with the tail specs.
func cacheKey(fp string, comp *xquery.Compiled) string {
	return fmt.Sprintf("%s|t:%v:%v:%v|o:%s|a:%s|l:%s", fp,
		comp.Tail.Project, comp.Tail.Sort, comp.Tail.Final,
		comp.Tail.Order, comp.Tail.Agg, comp.Tail.Limit)
}

// shardOut is one shard's (or one document's) contribution to the gather:
// its windowed relation with the order keys, or its partial aggregate.
type shardOut struct {
	comp *xquery.Compiled
	rel  *table.Relation
	keys []plan.Key
	agg  *plan.AggState
}

// query runs one query through the decomposed pipeline.
func (p *pipeline) query(q string) ([]string, error) {
	sp := p.tr.begin("xquery.compile")
	comp, err := xquery.CompileString(q, xquery.CompileOptions{})
	p.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = p.tr.begin("joingraph.fingerprint")
	fp := comp.Graph.Fingerprint()
	p.tr.end(sp)
	base := cacheKey(fp, comp)
	cat := p.cat
	var outs []shardOut
	if len(comp.Collections) == 0 {
		out, err := p.shard(cat, comp, base, cat.Generation())
		if err != nil {
			return nil, err
		}
		outs = []shardOut{out}
	} else {
		col, err := cat.Collection(comp.Collections[0])
		if err != nil {
			return nil, err
		}
		// The engine's per-shard window push-down: a shard contributes at
		// most offset+count items; the offset applies at the gather.
		shardComp := comp
		if w := comp.Tail.Limit; w != nil {
			var spec *plan.LimitSpec
			if w.Count > 0 {
				spec = &plan.LimitSpec{Count: w.Offset + w.Count}
			}
			shardComp = comp.WithTailLimit(spec)
		}
		for _, sh := range col.Shards {
			sp := p.tr.begin("xquery.for_shard")
			scomp := shardComp.ForShard(comp.Collections[0], sh.Name())
			p.tr.end(sp)
			out, err := p.shard(cat, scomp, base+"|shard:"+sh.Name(), sh.Gen)
			if err != nil {
				return nil, err
			}
			outs = append(outs, out)
		}
	}
	if comp.Tail.Agg != nil {
		var merged plan.AggState
		for _, o := range outs {
			merged.Merge(o.agg)
		}
		item, _ := merged.Render(comp.Tail.Agg.Kind)
		p.c.returned++
		return []string{item}, nil
	}
	// Serialize the rows the gather pulls, offset rows included, as the
	// engine's shard streams do; rows past the window are never rendered.
	picks, lo := gather(comp, outs, len(comp.Collections) > 0)
	items := make([]string, len(picks))
	sp = p.tr.begin("xmltree.serialize")
	for i, pk := range picks {
		o := outs[pk.shard]
		items[i] = renderItem(o.comp, o.rel, pk.row)
		p.c.serializeBytes += int64(len(items[i]))
	}
	p.tr.end(sp)
	p.c.returned += int64(len(items) - lo)
	return items[lo:], nil
}

// shard runs one compiled graph through lookup → replay or ROX → tail, and
// folds its rows when the query aggregates.
func (p *pipeline) shard(cat *plan.Catalog, comp *xquery.Compiled, key string, gen uint64) (shardOut, error) {
	env := plan.NewQueryEnv(cat, metrics.NewRecorder(), p.seed)
	rel, keys, err := p.cached(env, comp, key, gen)
	p.c.sampleTuples += env.Rec.CostOf(metrics.PhaseSample).Tuples
	p.c.execTuples += env.Rec.CostOf(metrics.PhaseExecute).Tuples
	if err != nil {
		return shardOut{}, err
	}
	out := shardOut{comp: comp, rel: rel, keys: keys}
	if comp.Tail.Agg != nil {
		sp := p.tr.begin("plan.fold")
		out.agg, err = plan.FoldAgg(rel, comp.Tail.Agg)
		p.tr.end(sp)
	}
	return out, err
}

// renderItem serializes one result row exactly as the engine does.
func renderItem(comp *xquery.Compiled, rel *table.Relation, row int) string {
	var sb strings.Builder
	if comp.Return.Elem != "" {
		sb.WriteString("<" + comp.Return.Elem + ">")
	}
	for _, v := range comp.Return.Vars {
		vertex := comp.Vars[v]
		sb.WriteString(xmltree.SerializeString(rel.Doc(vertex), rel.Column(vertex)[row]))
	}
	if comp.Return.Elem != "" {
		sb.WriteString("</" + comp.Return.Elem + ">")
	}
	return sb.String()
}

// cached is the engine's executeCached: a hit replays, a stale hit replays
// and verifies drift, a miss (or drift) runs ROX and installs its plan.
func (p *pipeline) cached(env *plan.Env, comp *xquery.Compiled, key string, gen uint64) (*table.Relation, []plan.Key, error) {
	sp := p.tr.begin("plancache.lookup")
	entry, outcome := p.cache.Lookup(key, gen)
	p.tr.end(sp)
	if outcome != plancache.Miss {
		rel, keys, edgeRows, err := p.replay(env, comp, entry.Plan)
		switch {
		case err != nil:
			p.cache.Invalidate(key)
		case outcome == plancache.Hit:
			return rel, keys, nil
		default:
			if _, _, _, drifted := plancache.Drift(entry.Expected, edgeRows, p.drift); drifted {
				p.cache.MarkDrift(key, gen)
			} else {
				p.cache.Revalidate(key, gen, edgeRows)
				return rel, keys, nil
			}
		}
	}
	sp = p.tr.begin("core.run")
	rel, res, err := core.Run(env, comp.Graph, comp.Tail, p.opts)
	p.tr.end(sp)
	if err != nil {
		return nil, nil, err
	}
	p.c.runs++
	p.c.intermediate += res.CumulativeIntermediate
	p.c.scanned += int64(res.Scanned)
	if res.Trace != nil {
		p.c.explorations += len(res.Trace.Explorations)
	}
	// The paper's "ROX vs. pure plan": the discovered plan alone, on the
	// same data, in a scratch environment (not part of the mirror's work).
	sp = p.tr.begin("bench.pure_plan")
	_, _, perr := plan.RunWithConfig(plan.NewQueryEnv(env.Catalog(), metrics.NewRecorder(), p.seed),
		comp.Graph, &res.Plan, comp.Tail, plan.RunConfig{EagerProject: p.opts.EagerProject})
	p.tr.end(sp)
	if perr != nil {
		return nil, nil, fmt.Errorf("pure plan: %w", perr)
	}
	p.cache.Install(&plancache.Entry{Fingerprint: key, Generation: gen, Plan: res.Plan, Expected: res.EdgeRows})
	return rel, res.Keys, nil
}

// replay is plan.RunWithConfig decomposed: vertex tables, then one edge
// execution per plan step, the final relation and the tail.
func (p *pipeline) replay(env *plan.Env, comp *xquery.Compiled, pl plan.Plan) (*table.Relation, []plan.Key, map[int]int, error) {
	g, tail := comp.Graph, comp.Tail
	if err := pl.Covers(g); err != nil {
		return nil, nil, nil, err
	}
	sp := p.tr.begin("plan.new_runner")
	r := plan.NewRunner(env, g)
	if p.opts.EagerProject {
		r.EnableProjectReduce(tail.Required(g))
	}
	p.tr.end(sp)
	// Materializing the step endpoints up front is what ExecEdge would do
	// lazily: an index lookup does not depend on the runner's state.
	seen := map[int]bool{}
	for _, s := range pl.Steps {
		e := g.Edges[s.EdgeID]
		for _, v := range []int{e.From, e.To} {
			if seen[v] {
				continue
			}
			seen[v] = true
			sp := p.tr.begin("plan.vertex_table")
			t, err := r.EnsureTable(v)
			p.tr.end(sp)
			if err != nil {
				return nil, nil, nil, err
			}
			p.c.vertexNodes += int64(t.Len())
		}
	}
	edgeRows := make(map[int]int, len(pl.Steps))
	for _, s := range pl.Steps {
		sp := p.tr.begin("plan.exec_edge")
		rows, err := r.ExecEdge(g.Edges[s.EdgeID], s.Reverse, s.Alg)
		p.tr.end(sp)
		if err != nil {
			return nil, nil, nil, err
		}
		edgeRows[s.EdgeID] = rows
	}
	sp = p.tr.begin("plan.final_relation")
	rel, err := r.FinalRelation(tail.Required(g))
	p.tr.end(sp)
	if err != nil {
		return nil, nil, nil, err
	}
	sp = p.tr.begin("plan.tail")
	out, keys, scanned := tail.Execute(rel)
	p.tr.end(sp)
	p.c.intermediate += r.CumulativeIntermediate
	p.c.scanned += int64(scanned)
	return out, keys, edgeRows, nil
}

// pick is one row of one shard's output.
type pick struct{ shard, row int }

// gather orders the shard rows as the engine's scatter cursor does (shard
// concatenation, or a k-way merge by order key with ties to the earliest
// shard) and returns the rows the cursor pulls, up to the end of the
// window, with the offset at which the returned items start. Only a
// scattered query windows here; a document's tail has already done it.
func gather(comp *xquery.Compiled, outs []shardOut, scattered bool) ([]pick, int) {
	lo, hi := 0, -1
	if w := comp.Tail.Limit; w != nil && scattered {
		lo = max(w.Offset, 0)
		if w.Count > 0 {
			hi = lo + w.Count
		}
	}
	var picks []pick
	pos := make([]int, len(outs))
	for hi < 0 || len(picks) < hi {
		best := -1
		for i, o := range outs {
			if pos[i] >= o.rel.NumRows() {
				continue
			}
			if best == -1 {
				best = i
				continue
			}
			if comp.Tail.Order == nil {
				break // concatenation: the earliest unfinished shard wins
			}
			c := o.keys[pos[i]].Compare(outs[best].keys[pos[best]])
			if (comp.Tail.Order.Desc && c > 0) || (!comp.Tail.Order.Desc && c < 0) {
				best = i
			}
		}
		if best == -1 {
			break
		}
		picks = append(picks, pick{best, pos[best]})
		pos[best]++
	}
	return picks, min(lo, len(picks))
}

// appendFrag mirrors Ingester.Append on a collection: round-robin over the
// shards, parse, extend the shard's overlay.
func (p *pipeline) appendFrag(xml string) error {
	col, err := p.cat.Collection(coll)
	if err != nil {
		return err
	}
	name := col.Shards[p.rr%len(col.Shards)].Name()
	p.rr++
	ov := p.overlays[name]
	if ov == nil {
		ix, err := p.cat.Index(name)
		if err != nil {
			return err
		}
		ov = &overlay{app: xmltree.NewAppender(ix.Doc()), baseIx: ix}
		if b := ix.Base(); b != nil {
			ov.baseIx = b
		}
		p.overlays[name] = ov
	}
	frag, err := xmltree.ParseString("ingest", xml)
	if err != nil {
		return err
	}
	if err := ov.app.Append(frag); err != nil {
		return err
	}
	ov.dirty, ov.delta = true, true
	return nil
}

// commit mirrors Ingester.Commit's publish: one catalog swap re-registering
// every dirty overlay over a delta index, in name order.
func (p *pipeline) commit() {
	cat := p.cat.Clone()
	for _, name := range sortedNames(p.overlays) {
		ov := p.overlays[name]
		if !ov.dirty {
			continue
		}
		cat.AddIndexed(index.NewDelta(ov.baseIx, ov.app.Snapshot()))
		ov.dirty = false
	}
	p.cat = cat
}

// compact mirrors a compaction: every overlay flattened and re-indexed.
func (p *pipeline) compact() {
	cat := p.cat.Clone()
	for _, name := range sortedNames(p.overlays) {
		ov := p.overlays[name]
		if !ov.delta {
			continue
		}
		ix := index.New(ov.app.Snapshot().Flatten())
		cat.AddIndexed(ix)
		ov.app, ov.baseIx, ov.delta = xmltree.NewAppender(ix.Doc()), ix, false
	}
	p.cat = cat
}

func sortedNames(m map[string]*overlay) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
