package main

import (
	"math"
	"sort"
	"strings"
	"time"

	"ear/internal/telemetry"
)

// Wall-time attribution over the program's own spans.
//
// Every operation the benchmark issues on a traced cycle runs under a
// "bench.<class>" root span, so the program's spans nest beneath it. The
// root's wall time is split over its subtree instant by instant: at each
// moment the time goes, in equal shares, to the innermost spans open at that
// moment, and to the root itself when no program span is open. A span
// name's self time is the sum of its shares; the root's own share is the
// residual no program span covers. Parallel children (map tasks, pipeline
// hops, concurrent repairs) split the wall clock instead of each claiming
// all of it, so per class the self times plus the residual add up to the
// class's wall time exactly.

// benchPrefix names the benchmark's own root spans.
const benchPrefix = "bench."

// calibrateName is the throwaway span used to read a tracer's clock epoch.
const calibrateName = "bench.calibrate"

// spanSource is one tracer whose spans join the attribution.
type spanSource struct {
	tracer *telemetry.Tracer
	// client marks a netcfs client tracer: each client has its own tracer
	// and issues one call at a time, so an rpc span nests under the bench
	// root that encloses it in time, and its spans are named "client:<name>"
	// to keep them apart from the server's rpc spans of the same name.
	client bool
}

// classReport is the attribution of one op class (bench root name).
type classReport struct {
	Ops       int                `json:"ops"`
	WallS     float64            `json:"wall_s"`
	ResidualS float64            `json:"residual_s"`
	SelfS     map[string]float64 `json:"self_s"`
}

// traceReport accumulates attributions over traced cycles.
type traceReport struct {
	Classes map[string]*classReport `json:"classes"`
	// SelfS and Count are per span name over every class.
	SelfS map[string]float64 `json:"self_s"`
	Count map[string]int     `json:"count"`
	// Orphans counts program spans with no bench root above them.
	Orphans int `json:"orphans"`
}

func newTraceReport() *traceReport {
	return &traceReport{
		Classes: make(map[string]*classReport),
		SelfS:   make(map[string]float64),
		Count:   make(map[string]int),
	}
}

// selfUs is the mean self time of one span of the given name, in µs.
func (r *traceReport) selfUs(name string) float64 {
	if r.Count[name] == 0 {
		return 0
	}
	return r.SelfS[name] / float64(r.Count[name]) * 1e6
}

// maxImbalance returns the largest relative gap, over classes, between the
// class wall time and its self times plus residual.
func (r *traceReport) maxImbalance() float64 {
	worst := 0.0
	for _, cr := range r.Classes {
		sum := cr.ResidualS
		for _, s := range cr.SelfS {
			sum += s
		}
		if cr.WallS > 0 {
			worst = math.Max(worst, math.Abs(sum-cr.WallS)/cr.WallS)
		}
	}
	return worst
}

type tnode struct {
	src        int
	id, parent int64
	trace      uint64
	remote     int64
	name       string
	start, end time.Time
	up         int // index of the attributed parent, -1 for none
	kids       []int
	depth      int
}

// epochOf reads a tracer's clock origin: it opens a span between two clock
// readings and backs the span's recorded offset out of their midpoint.
func epochOf(tr *telemetry.Tracer) time.Time {
	before := time.Now()
	sp := tr.Start(calibrateName)
	after := time.Now()
	sp.End()
	id := sp.Context().Span
	mid := before.Add(after.Sub(before) / 2)
	spans := tr.Spans()
	for i := len(spans) - 1; i >= 0; i-- {
		if spans[i].ID == id {
			return mid.Add(-spans[i].Start)
		}
	}
	return mid
}

// attribute folds the spans of the given tracers into r.
func (r *traceReport) attribute(sources []spanSource) {
	var nodes []tnode
	type localKey struct {
		src int
		id  int64
	}
	type remoteKey struct {
		trace uint64
		id    int64
	}
	local := make(map[localKey]int)
	remote := make(map[remoteKey]int)
	benchRoots := make(map[int][]int) // client source -> bench roots by start
	for si, s := range sources {
		epoch := epochOf(s.tracer)
		for _, sp := range s.tracer.Spans() {
			if !sp.Ended || sp.Name == calibrateName {
				continue
			}
			name := sp.Name
			if s.client && !strings.HasPrefix(name, benchPrefix) {
				name = "client:" + name
			}
			start := epoch.Add(sp.Start)
			nodes = append(nodes, tnode{
				src: si, id: sp.ID, parent: sp.Parent, trace: sp.Trace, remote: sp.Remote,
				name: name, start: start, end: start.Add(sp.Dur), up: -1,
			})
			i := len(nodes) - 1
			local[localKey{si, sp.ID}] = i
			if s.client {
				remote[remoteKey{sp.Trace, sp.ID}] = i
				if sp.Parent == 0 && strings.HasPrefix(name, benchPrefix) {
					benchRoots[si] = append(benchRoots[si], i)
				}
			}
		}
	}
	for _, roots := range benchRoots {
		sort.Slice(roots, func(a, b int) bool { return nodes[roots[a]].start.Before(nodes[roots[b]].start) })
	}
	for i := range nodes {
		n := &nodes[i]
		switch {
		case n.parent != 0:
			if p, ok := local[localKey{n.src, n.parent}]; ok {
				n.up = p
			}
		case n.remote != 0:
			if p, ok := remote[remoteKey{n.trace, n.remote}]; ok {
				n.up = p
			}
		case sources[n.src].client && !strings.HasPrefix(n.name, benchPrefix):
			roots := benchRoots[n.src]
			k := sort.Search(len(roots), func(k int) bool { return nodes[roots[k]].start.After(n.start) })
			if k > 0 {
				n.up = roots[k-1]
			}
		}
		if n.up >= 0 {
			nodes[n.up].kids = append(nodes[n.up].kids, i)
		}
	}
	attached := make([]bool, len(nodes))
	for i := range nodes {
		if nodes[i].up >= 0 || !strings.HasPrefix(nodes[i].name, benchPrefix) {
			continue
		}
		r.sweep(nodes, i, attached)
	}
	for i := range nodes {
		if !attached[i] {
			r.Orphans++
		}
	}
}

// sweep attributes one bench root's wall time over its subtree.
func (r *traceReport) sweep(nodes []tnode, root int, attached []bool) {
	// Collect the subtree, clamping each span to its parent's interval so
	// clock skew between tracers cannot leak time outside the root.
	sub := []int{root}
	attached[root] = true
	for q := 0; q < len(sub); q++ {
		p := &nodes[sub[q]]
		for _, k := range p.kids {
			c := &nodes[k]
			if c.start.Before(p.start) {
				c.start = p.start
			}
			if c.end.After(p.end) {
				c.end = p.end
			}
			if c.end.Before(c.start) {
				c.end = c.start
			}
			c.depth = p.depth + 1
			attached[k] = true
			sub = append(sub, k)
		}
	}
	type edge struct {
		t     time.Time
		start bool
		n     int
	}
	edges := make([]edge, 0, 2*len(sub))
	for _, i := range sub {
		edges = append(edges, edge{nodes[i].start, true, i}, edge{nodes[i].end, false, i})
	}
	sort.Slice(edges, func(a, b int) bool {
		ea, eb := edges[a], edges[b]
		if !ea.t.Equal(eb.t) {
			return ea.t.Before(eb.t)
		}
		if ea.start != eb.start {
			return !ea.start // ends first
		}
		if ea.start {
			return nodes[ea.n].depth < nodes[eb.n].depth // parents open first
		}
		return nodes[ea.n].depth > nodes[eb.n].depth // children close first
	})
	self := make(map[string]float64)
	active := make(map[int]bool)
	openKids := make(map[int]int)
	leaves := make(map[int]bool)
	prev := nodes[root].start
	for _, e := range edges {
		if dt := e.t.Sub(prev).Seconds(); dt > 0 && len(leaves) > 0 {
			share := dt / float64(len(leaves))
			for l := range leaves {
				self[nodes[l].name] += share
			}
		}
		prev = e.t
		n := e.n
		up := nodes[n].up
		if e.start {
			active[n] = true
			leaves[n] = true
			if n != root && active[up] {
				openKids[up]++
				delete(leaves, up)
			}
			continue
		}
		delete(active, n)
		delete(leaves, n)
		if n != root && active[up] {
			openKids[up]--
			if openKids[up] == 0 {
				leaves[up] = true
			}
		}
	}

	rootName := nodes[root].name
	class := strings.TrimPrefix(rootName, benchPrefix)
	cr := r.Classes[class]
	if cr == nil {
		cr = &classReport{SelfS: make(map[string]float64)}
		r.Classes[class] = cr
	}
	cr.Ops++
	cr.WallS += nodes[root].end.Sub(nodes[root].start).Seconds()
	cr.ResidualS += self[rootName]
	for name, s := range self {
		if name == rootName {
			continue
		}
		cr.SelfS[name] += s
		r.SelfS[name] += s
	}
	for _, i := range sub[1:] {
		r.Count[nodes[i].name]++
	}
}
