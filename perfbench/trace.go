package main

import (
	"sort"
	"time"

	"repro/internal/opencl"
	"repro/internal/telemetry"
)

// Span layout of one traced chain. The root span ("chain", or
// "native_chain" for the native reference) covers submit to the last
// read-back. Its children are the host API calls that submitted the
// chain and one wait span from the last call to the end; spans rebuilt
// from the events' profiling stamps hang under the wait span (or the
// root, when they began before it). A span's category is the module it
// is charged to: the benchmark itself ("bench"), the API the chain
// calls ("accelos", "service" or "opencl"), and "interp" for the
// kernel's execution.

// traceChain records r's spans into tr, root last, so a root present in
// the buffer always has all its children there too.
func traceChain(tr *telemetry.Tracer, r *chainRun, end time.Time) {
	s := r.s
	root := tr.NewID()
	for _, c := range r.calls {
		tr.CompleteAs(tr.NewID(), root, s.tenant, s.job.key, s.layer, c.name, c.start, c.end)
	}
	waitStart := r.callsEnd()
	wait := tr.NewID()
	tr.CompleteAs(wait, root, s.tenant, s.job.key, s.layer, s.layer+".wait", waitStart, end)
	stage := func(cat, name string, from, to time.Time) {
		if from.IsZero() || to.IsZero() || !to.After(from) {
			return
		}
		if from.Before(r.t0) {
			from = r.t0
		}
		if to.After(end) {
			to = end
		}
		parent := root
		if !from.Before(waitStart) {
			parent = wait
		}
		tr.CompleteAs(tr.NewID(), parent, s.tenant, s.job.key, cat, name, from, to)
	}
	transfer := func(evs []*opencl.Event, name string) {
		for _, ev := range evs {
			if p, err := ev.ProfilingInfo(); err == nil {
				stage("opencl", name, p.Running, p.Complete)
			}
		}
	}
	transfer(r.writes, "opencl.write")
	if p, err := r.kernel.ProfilingInfo(); err == nil {
		stage(s.layer, s.layer+".queue", p.Queued, p.Submitted)
		stage(s.layer, s.layer+".launch", p.Submitted, p.Running)
		stage("interp", "interp.run", p.Running, p.Complete)
	}
	transfer(r.reads, "opencl.read")
	name := "chain"
	if s.layer == "opencl" {
		name = "native_chain"
	}
	tr.CompleteAs(root, 0, s.tenant, s.job.key, "bench", name, r.t0, end)
}

// selfTimes attributes the time of every root span named rootName to
// the modules of the spans under it. At each instant the deepest open
// span owns the time (the latest-started one among equals), so each
// root's per-module self times add up to exactly its duration. It
// returns the summed self time per module and the number of roots.
func selfTimes(spans []telemetry.Span, rootName string) (map[string]time.Duration, int) {
	byID := make(map[int64]*telemetry.Span, len(spans))
	kids := make(map[int64][]int64)
	for i := range spans {
		sp := &spans[i]
		byID[sp.ID] = sp
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp.ID)
		}
	}
	self := make(map[string]time.Duration)
	roots := 0
	for i := range spans {
		root := &spans[i]
		if root.Parent != 0 || root.Name != rootName {
			continue
		}
		roots++
		for cat, d := range partition(root, byID, kids) {
			self[cat] += d
		}
	}
	return self, roots
}

// partition splits one root span's interval among its tree by module.
func partition(root *telemetry.Span, byID map[int64]*telemetry.Span, kids map[int64][]int64) map[string]time.Duration {
	type node struct {
		sp    *telemetry.Span
		depth int
	}
	nodes := []node{{root, 0}}
	for i := 0; i < len(nodes); i++ {
		for _, id := range kids[nodes[i].sp.ID] {
			if c := byID[id]; c != nil {
				nodes = append(nodes, node{c, nodes[i].depth + 1})
			}
		}
	}
	clip := func(t time.Time) time.Time {
		if t.Before(root.Start) {
			return root.Start
		}
		if t.After(root.End) {
			return root.End
		}
		return t
	}
	var cuts []time.Time
	for _, n := range nodes {
		cuts = append(cuts, clip(n.sp.Start), clip(n.sp.End))
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i].Before(cuts[j]) })
	out := make(map[string]time.Duration)
	for i := 0; i+1 < len(cuts); i++ {
		from, to := cuts[i], cuts[i+1]
		if !to.After(from) {
			continue
		}
		owner := nodes[0]
		for _, n := range nodes[1:] {
			if n.sp.Start.After(from) || n.sp.End.Before(to) {
				continue // not open over the whole piece
			}
			if n.depth > owner.depth || (n.depth == owner.depth && n.sp.Start.After(owner.sp.Start)) {
				owner = n
			}
		}
		out[owner.sp.Cat] += to.Sub(from)
	}
	return out
}
