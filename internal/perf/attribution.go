package perf

import (
	"context"
	"math/rand"
	"strings"
	"time"

	"musketeer"
	"musketeer/internal/relation"
)

// This file turns a traced window's spans into per-layer metrics.

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pipelineSpans maps the benchmark's own span names around the planning
// pipeline to the per-layer metric each feeds, as a mean per call.
var pipelineSpans = map[string]string{
	"frontends.parse":   "frontends.parse_us",
	"analysis.check":    "analysis.check_us",
	"ir.validate":       "ir.validate_us",
	"ir.canonical_hash": "ir.canonical_hash_us",
	"ir.dag_hash":       "ir.dag_hash_us",
	"core.optimize":     "core.optimize_us",
	"core.plan_search":  "core.plan_search_us",
}

func pipelineMetrics(stats map[string]SpanStat, out map[string]float64) {
	for span, metric := range pipelineSpans {
		if st := stats[span]; st.Count > 0 {
			out[metric] = us(st.Total) / float64(st.Count)
		}
	}
}

// runMetrics derives the execution-side metrics from copied flight-recorder
// spans: engine phases summed per operation, the share of a run that is not
// inside any job, and WHILE-driver iteration overhead. ops is the number of
// operations the spans cover.
func runMetrics(spans []Span, ops float64, out map[string]float64) {
	stats := SelfTimes(spans)
	pull, process, push := stats["engines.pull"].Total, stats["engines.process"].Total, stats["engines.push"].Total
	out["engines.pull_ms"] = ms(pull) / ops
	out["engines.process_ms"] = ms(process) / ops
	out["engines.push_ms"] = ms(push) / ops
	if it := stats["core.while_iteration"]; it.Count > 0 {
		out["core.while_iterations"] = float64(it.Count) / ops
		out["core.while_iteration_overhead_ms"] = ms(it.Self) / float64(it.Count)
	}
	// Run overhead: the workflow span minus the time covered by its
	// top-level jobs (those the schedule span dispatched) — session staging,
	// analysis, scheduling, feedback, publish and digest.
	jobs := map[int][]Span{}
	for _, s := range spans {
		if s.Name == "engines.job" && s.Parent >= 0 && spans[s.Parent].Name == "core.schedule" {
			jobs[s.Op] = append(jobs[s.Op], s)
		}
	}
	var overhead time.Duration
	for _, s := range spans {
		if s.Name == "core.workflow" {
			overhead += s.End - s.Start - coverage(jobs[s.Op], s.Start, s.End)
		}
	}
	out["core.run_overhead_ms"] = ms(overhead) / ops
	if wf := stats["core.workflow"]; wf.Count > 0 {
		out["obs.spans_per_op"] = float64(flightSpans(spans)) / float64(wf.Count)
	}
}

// flightSpans counts the spans copied from the product's flight recorder
// (everything the benchmark did not open itself).
func flightSpans(spans []Span) int {
	n := 0
	for _, s := range spans {
		if _, own := pipelineSpans[s.Name]; !own && s.Name != "op" && s.Name != "core.run" && !strings.HasPrefix(s.Name, "serve.") {
			n++
		}
	}
	return n
}

// layers fills in the closed-loop workloads' per-layer metrics.
func (c *closedLoop) layers(tr *Tracer, w *closedWindow, iso isolator) error {
	out := iso.out
	spans := tr.Spans()
	stats := SelfTimes(spans)
	pipelineMetrics(stats, out)
	ops := float64(stats["op"].Count)

	var jobs, dagOps, rewrites float64
	for _, mb := range c.members {
		r := w.results[mb.name][0]
		jobs += float64(r.jobs)
		dagOps += float64(r.ops)
		rewrites += float64(r.rewrites)
	}
	n := float64(len(c.members))
	out["engines.jobs_per_workflow"] = jobs / n
	out["ir.ops_after_optimize"] = dagOps / n
	out["core.optimize_rewrites"] = rewrites / n

	// One plan per member, for the code generator's isolated timing.
	var parts []*musketeer.Partitioning
	for _, mb := range c.members {
		wf, err := mb.compile(c.m)
		if err != nil {
			return err
		}
		if err := wf.BindTenant(benchTenant); err != nil {
			return err
		}
		wf.Optimize()
		var part *musketeer.Partitioning
		if c.kind == kindPerOp {
			part, err = wf.PlanFor("hadoop")
		} else {
			part, err = wf.Plan()
		}
		if err != nil {
			return err
		}
		parts = append(parts, part)
	}
	iso.codegen(parts)
	if c.kind == kindPlan {
		return nil // plan_cold never touches exec, relation codecs or the DFS data path
	}

	runMetrics(spans, ops, out)
	phases := out["engines.pull_ms"] + out["engines.process_ms"] + out["engines.push_ms"]
	out["engines.phase_share_of_lat_p50"] = ratio(phases, ms(stats["op"].Total)/ops)
	big := largest(c.inputs())
	iso.relation(big)
	iso.dfs(big)
	return iso.exec(c.m, c.members)
}

// sweepRates are the offered rates of the stepped sweep behind
// serve.max_rate_ok_rps, in submissions per second.
var sweepRates = []float64{150, 300, 450, 600, 750}

// sweepLimitMS is the p95 a sweep step must stay under to count as met.
const sweepLimitMS = 25

// layers fills in serve_open's per-layer metrics from the traced window's
// requests, their server timestamps and their flight recorders, then runs
// the planning pipeline in isolation and the stepped rate sweep.
func (s *serveLoop) layers(ctx context.Context, tr *Tracer, w *serveWindow, seed int64, sweepStep time.Duration, iso isolator) error {
	out := iso.out
	var post, late, queue, run, hit, miss []float64
	done := 0
	for i, q := range w.requests {
		late = append(late, q.sent.Sub(q.intended).Seconds()*1e3)
		post = append(post, q.postMS)
		if !w.ok(q) {
			continue
		}
		done++
		submitted, err1 := time.Parse(time.RFC3339Nano, q.status.SubmittedAt)
		started, err2 := time.Parse(time.RFC3339Nano, q.status.StartedAt)
		if err1 != nil || err2 != nil {
			continue
		}
		queue = append(queue, started.Sub(submitted).Seconds()*1e3)
		run = append(run, q.finished.Sub(started).Seconds()*1e3)
		if q.status.Result.PlanCacheHit {
			hit = append(hit, w.latencyMS(q))
		} else {
			miss = append(miss, w.latencyMS(q))
		}
		root := tr.Add("serve.request", q.intended, q.finished, -1, i)
		tr.Add("serve.submit_call", q.sent, q.sent.Add(time.Duration(q.postMS*float64(time.Millisecond))), root, i)
		tr.Add("serve.fairqueue_wait", submitted, started, root, i)
		runSpan := tr.Add("serve.run", started, q.finished, root, i)
		if rec := w.flights[q.id]; rec != nil {
			copyFlight(tr, rec, started, runSpan, i)
		}
	}
	all, _ := w.latencies(nil)
	pct := func(xs []float64, p float64) float64 {
		v, err := Percentile(xs, p)
		if err != nil {
			return 0 // too few samples to call it a percentile; reads as not measured
		}
		return v
	}
	out["serve.submit_call_ms_p50"], out["serve.submit_call_ms_p95"] = pct(post, 50), pct(post, 95)
	out["serve.sender_late_ms_p50"], out["serve.sender_late_ms_p99"] = pct(late, 50), pct(late, 99)
	out["sched.fairqueue_wait_ms_p50"], out["sched.fairqueue_wait_ms_p95"] = pct(queue, 50), pct(queue, 95)
	out["serve.run_ms_p50"] = pct(run, 50)
	out["serve.status_get_ms_p50"] = pct(w.getMS, 50)
	out["serve.hit_lat_p50_ms"], out["serve.miss_lat_p50_ms"] = pct(hit, 50), pct(miss, 50)
	out["serve.lat_p95_ms"], out["serve.lat_p99_ms"] = pct(all, 95), pct(all, 99)
	out["serve.max_outstanding"] = float64(w.maxOut)
	out["serve.backlog_end"] = float64(w.backlog)
	out["serve.rejected_429"] = float64(w.rejected)
	runMetrics(tr.Spans(), float64(max(done, 1)), out)
	phases := out["engines.pull_ms"] + out["engines.process_ms"] + out["engines.push_ms"]
	out["engines.phase_share_of_lat_p50"] = ratio(phases, pct(all, 50))
	out["engines.jobs_per_workflow"] = out["sched.jobs_dispatched"]

	// The planning pipeline runs inside the server's handlers and workers,
	// where the benchmark cannot put spans. Replay it in isolation on the
	// same deployment: compile → check → optimize → hash → plan of a
	// never-seen variant, which is exactly what a miss pays.
	ptr := NewTracer()
	var last opResult
	var part *musketeer.Partitioning
	var wf *musketeer.Workflow
	for start, i := time.Now(), 0; i < 3 || time.Since(start) < iso.budget; i++ {
		src := crossCommunityBEER(serveIterations, novelDamping(s.novel))
		s.novel++
		mb := &member{compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) { return m.CompileBEER(src, serveCat) }}
		var err error
		if last, wf, part, err = planPipeline(s.m, ptr, -1, i, mb, tenantName(0)); err != nil {
			return err
		}
	}
	pipelineMetrics(SelfTimes(ptr.Spans()), out)
	out["ir.ops_after_optimize"] = float64(last.ops)
	out["core.optimize_rewrites"] = float64(last.rewrites)
	iso.planCache(wf.DAG(), part)
	iso.codegen([]*musketeer.Partitioning{part})

	g := s.graphs[0]
	inputs := map[string]*relation.Relation{"in/edges_a": edgeRelation("edges_a", g[0]), "in/edges_b": edgeRelation("edges_b", g[1])}
	big := largest(inputs)
	iso.relation(big)
	iso.dfs(big)
	beer := crossCommunityBEER(serveIterations, hotDamping(0))
	if err := iso.exec(s.m, []*member{{inputs: inputs, compile: func(m *musketeer.Musketeer) (*musketeer.Workflow, error) {
		return m.CompileBEER(beer, serveCat)
	}}}); err != nil {
		return err
	}

	// Stepped sweep: the highest offered rate that keeps p95 under the limit
	// without a growing backlog.
	best := 0.0
	r := rand.New(rand.NewSource(seed ^ 0x5ee9))
	for _, rate := range sweepRates {
		step := s.window(ctx, rate, sweepStep, r)
		lat, failed := step.latencies(nil)
		p95, err := Percentile(lat, 95)
		if err == nil && failed == 0 && p95 <= sweepLimitMS && !step.backlogGrows() {
			best = rate
		}
	}
	out["serve.max_rate_ok_rps"] = best
	return nil
}
