package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"time"

	"cicero/internal/engine"
	"cicero/internal/httpserve"
	"cicero/internal/pipeline"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/summarize"
	"cicero/internal/voice"
)

// span is one timed call into a layer. Spans are recorded by the benchmark
// only, around the calls it makes; times are nanoseconds since the tracer
// was made.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"` // shared by one request's spans across rungs
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the workload ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a span and returns its id, for children to name as parent.
func (t *tracer) record(name string, parent, req int64, start, end time.Time) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
	})
	return id
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// traced is the traced run: the per-layer numbers, from ladders whose
// rungs each add one layer, and the span file.
func (r *run) traced(ctx context.Context) error {
	r.snapshotLayer()
	if err := r.servingLadder(ctx); err != nil {
		return err
	}
	if err := r.tracedLoad(ctx); err != nil {
		return err
	}
	rebuild, err := r.preprocessLadder(ctx)
	if err != nil {
		return err
	}
	if err := r.publishLadder(ctx, rebuild); err != nil {
		return err
	}
	if r.res.Attempted > 0 {
		r.res.set("failed_share", float64(r.res.Failed)/float64(r.res.Attempted))
	}
	return r.tr.write(filepath.Join(r.opt.dir, "trace-"+r.sp.name+".json"))
}

// snapshotLayer reports the snapshot stages of the set-up and times the
// two the set-up does not run: a heap decode and a full verify.
func (r *run) snapshotLayer() {
	d := r.d
	r.res.set("snapshot.write_ns", float64(d.times.snapWrite))
	r.res.set("snapshot.map_ns", float64(d.times.snapMap)/float64(len(d.nodes)))
	if info, err := os.Stat(d.snap); err == nil {
		r.res.set("snapshot.bytes", float64(info.Size()))
	}
	t0 := time.Now()
	_, err := snapshot.ReadFile(d.snap, d.rel)
	t1 := time.Now()
	r.count(1, failedIf(err != nil))
	r.tr.record("snapshot.ReadFile", 0, 0, t0, t1)
	r.res.set("snapshot.decode_ns", float64(t1.Sub(t0)))
	t0 = time.Now()
	err = d.nodes[0].view.Verify()
	t1 = time.Now()
	r.count(1, failedIf(err != nil))
	r.tr.record("snapshot.Map.Verify", 0, 0, t0, t1)
	r.res.set("snapshot.verify_ns", float64(t1.Sub(t0)))
}

func failedIf(b bool) int {
	if b {
		return 1
	}
	return 0
}

// rung is the per-request durations (ns) of one ladder rung.
type rung []float64

// selfTime is the median over requests of upper minus lower: the time the
// upper rung's layer adds to the same request.
func selfTime(upper, lower rung) float64 {
	diff := make([]float64, len(upper))
	for i := range upper {
		diff[i] = upper[i] - lower[i]
	}
	return median(diff)
}

// servingLadder replays the head of the workload's send sequence once per
// rung, one request at a time, each rung against a freshly built server so
// the cache holds the same entries at request i on every rung:
//
//	voice.Classify → Answerer.Answer / Session.Answer →
//	Server.AnswerDataset / AnswerSession → Server.Handler() → loopback HTTP
//	→ cluster.Router
func (r *run) servingLadder(ctx context.Context) error {
	sp, d, t := r.sp, r.d, r.t
	n := int(r.opt.seconds * 400)
	if sp.traffic == dialogTraffic {
		n = int(r.opt.seconds * 120)
	}
	n = min(max(n, 1), len(t.reqs))
	reqs := t.reqs[:n]
	dialog := len(t.sessions) > 0
	view := d.nodes[0].view
	sessionOf := func(rq request, rungName string) string {
		return fmt.Sprintf("%s.%s", t.sessions[rq.dialogue], rungName)
	}
	wrong := 0
	check := func(rq request, kind, text string) {
		if answerHash(kind, text) != t.expects[rq.expect].hash {
			wrong++
		}
	}

	// Rungs 1 and 2, request by request so that each pair is timed on the
	// same warm text: the front end alone (and the store lookup it leads
	// to), then the in-process answerer.
	classify, normalize, answer := make(rung, n), make(rung, n), make(rung, n)
	kinds := make([]string, n)
	var match []float64
	exact := 0
	answerer := serve.New(d.rel, view, d.ex, serve.Options{})
	var sess *serve.Session
	last := int32(-1)
	for i, rq := range reqs {
		text := t.texts[rq.text]
		id := int64(i + 1)
		t0 := time.Now()
		c := voice.Classify(text, d.ex)
		t1 := time.Now()
		voice.Normalize(text)
		t2 := time.Now()
		classify[i], normalize[i] = float64(t1.Sub(t0)), float64(t2.Sub(t1))
		r.tr.record("voice.Classify", 0, id, t0, t1)
		if c.Type == voice.SQuery {
			t0 = time.Now()
			_, isExact, ok := view.Match(c.Query)
			t1 = time.Now()
			r.tr.record("engine.StoreView.Match", 0, id, t0, t1)
			match = append(match, float64(t1.Sub(t0)))
			if ok && isExact {
				exact++
			}
		}

		var ans serve.Answer
		t0 = time.Now()
		if dialog {
			if rq.dialogue != last {
				sess, last = answerer.NewSession(), rq.dialogue
			}
			ans = sess.Answer(text)
		} else {
			ans = answerer.Answer(text)
		}
		t1 = time.Now()
		answer[i], kinds[i] = float64(t1.Sub(t0)), ans.Kind.String()
		r.tr.record("serve.Answer", 0, id, t0, t1)
		check(rq, kinds[i], ans.Text)
	}

	// Rung 3: the serving tier in process.
	node3, err := bootNode(sp, d.rel, view, d.ex)
	if err != nil {
		return err
	}
	tier := make(rung, n)
	cached := make([]bool, n)
	for i, rq := range reqs {
		text := t.texts[rq.text]
		var res httpserve.Result
		t0 := time.Now()
		if dialog {
			res, err = node3.srv.AnswerSession(ctx, sp.dataset, sessionOf(rq, "tier"), text)
		} else {
			res, err = node3.srv.AnswerDataset(ctx, sp.dataset, text)
		}
		t1 := time.Now()
		if err != nil {
			node3.ln.close()
			return fmt.Errorf("ladder: httpserve rung: %w", err)
		}
		tier[i], cached[i] = float64(t1.Sub(t0)), res.Cached
		r.tr.record("httpserve.Answer", 0, int64(i+1), t0, t1)
		check(rq, res.Kind.String(), res.Text)
	}
	node3.ln.close()

	// Rung 4: the HTTP handler, no network.
	node4, err := bootNode(sp, d.rel, view, d.ex)
	if err != nil {
		return err
	}
	handler := make(rung, n)
	h := node4.srv.Handler()
	in := phaseInput{t: t}
	path := "/v1/" + sp.dataset + "/answer"
	for i, rq := range reqs {
		in.tag = "handler"
		body, _ := in.body(rq, 0)
		t0 := time.Now()
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		t1 := time.Now()
		handler[i] = float64(t1.Sub(t0))
		r.tr.record("httpserve.Handler", 0, int64(i+1), t0, t1)
		var w wireAnswer
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &w) != nil {
			wrong++
			continue
		}
		check(rq, w.Kind, w.Text)
	}
	node4.ln.close()

	// Rung 5: a loopback connection to one node.
	node5, err := bootNode(sp, d.rel, view, d.ex)
	if err != nil {
		return err
	}
	loopback, _, err := r.httpRung("loopback.http", node5.ln.url+path, reqs, &wrong)
	node5.ln.close()
	if err != nil {
		return err
	}

	// Rung 6: the same through a router over two fresh nodes.
	var routed rung
	attempts := 0
	if sp.cluster {
		fresh := &deployment{sp: sp}
		for i := 0; i < 2; i++ {
			nd, err := bootNode(sp, d.rel, view, d.ex)
			if err != nil {
				fresh.close()
				return err
			}
			fresh.nodes = append(fresh.nodes, nd)
		}
		if err := fresh.bootRouter(); err != nil {
			fresh.close()
			return err
		}
		routed, attempts, err = r.httpRung("cluster.route", fresh.answerURL(), reqs, &wrong)
		stale := fresh.router.Stats().StaleServed
		fresh.close()
		if err != nil {
			return err
		}
		r.res.set("cluster.route_self_ns", selfTime(routed, loopback))
		r.res.set("cluster.attempts_per_request", float64(attempts)/float64(n))
		r.res.set("cluster.stale_served", float64(stale))
	}
	// Every rung but the first checks its answers.
	rungs := 4
	if sp.cluster {
		rungs = 5
	}
	r.count(rungs*n, wrong)

	r.res.set("voice.classify_ns", median(classify))
	r.res.set("voice.normalize_ns", median(normalize))
	r.res.set("engine.match_ns", median(match))
	if len(match) > 0 {
		r.res.set("engine.match_exact_share", float64(exact)/float64(len(match)))
	}
	if dialog {
		r.res.set("serve.session_self_ns", selfTime(answer, classify))
		r.res.set("httpserve.session_self_ns", selfTime(tier, answer))
	} else {
		r.res.set("serve.answer_self_ns", selfTime(answer, classify))
		var hit, miss []float64
		for i := range tier {
			if cached[i] {
				hit = append(hit, tier[i])
			} else {
				miss = append(miss, tier[i])
			}
		}
		r.res.set("httpserve.answer_ns.hit", median(hit))
		r.res.set("httpserve.answer_ns.miss", median(miss))
	}
	for _, shape := range scanShapes {
		var self []float64
		for i := range answer {
			if kinds[i] == shape {
				self = append(self, answer[i]-classify[i])
			}
		}
		r.res.set("engine.scan_ns."+shape, median(self))
	}
	r.res.set("httpserve.handler_self_ns", selfTime(handler, tier))
	r.res.set("loopback.http_self_ns", selfTime(loopback, handler))

	// The group-by every scan shape runs: one dimension, one target, the
	// whole relation.
	var groupBy []float64
	full := d.rel.FullView()
	for dim := 0; dim < d.rel.NumDims(); dim++ {
		for target := 0; target < d.rel.NumTargets(); target++ {
			t0 := time.Now()
			full.GroupBy([]int{dim}, target)
			t1 := time.Now()
			r.tr.record("relation.View.GroupBy", 0, 0, t0, t1)
			groupBy = append(groupBy, float64(t1.Sub(t0)))
		}
	}
	r.res.set("relation.groupby_ns", median(groupBy))
	return nil
}

// httpRung replays reqs over one keep-alive connection to url.
func (r *run) httpRung(name, url string, reqs []request, wrong *int) (rung, int, error) {
	cl := newClient(url)
	defer cl.close()
	in := phaseInput{t: r.t, tag: name}
	out := make(rung, len(reqs))
	attempts := 0
	for i, rq := range reqs {
		body, _ := in.body(rq, 0)
		t0 := time.Now()
		rep, err := cl.post(body)
		t1 := time.Now()
		if err != nil {
			return nil, 0, fmt.Errorf("ladder: %s rung: %w", name, err)
		}
		out[i] = float64(t1.Sub(t0))
		attempts += rep.attempts
		r.tr.record(name, 0, int64(i+1), t0, t1)
		if rep.status != http.StatusOK || rep.hash != r.t.expects[rq.expect].hash {
			*wrong++
		}
	}
	return out, attempts, nil
}

// openLoopWindow is the width of the windows the open loop's p99 is
// taken over.
const openLoopWindow = 2 * time.Second

// tracedLoad runs the issue's open loop — real time, at the workload's
// rate, min(nproc,2) connections, each request timed from when it was due,
// the publisher beside it on publish_under_read — for half the measured
// seconds, and then again briefly with client-side spans. The first pass
// gives answer_p50_us and answer_p99_us, the load generator's validity
// metrics and the serving tier's counters; the difference between the two
// is what recording spans costs. This is where the guard rails on the
// offered traffic — hit share, follow-up resolution — are checked at the
// arrival pattern the workload is named for, and the generator's lateness
// is reported.
func (r *run) tracedLoad(ctx context.Context) error {
	sp := r.sp
	pub := newPublisher(r, r.d)
	share := func(f float64) time.Duration { return time.Duration(f * r.opt.seconds * float64(time.Second)) }
	clock := time.Now()
	if sp.publishUnderRead {
		pub.startBeside(ctx, clock)
	}
	in := phaseInput{url: r.d.answerURL(), t: r.t, can: pub.can, conns: r.conn, duration: share(0.5), rate: sp.rate, tag: "plain"}
	plainObs, plainStart := openLoop(in)
	plainDur := in.duration
	in.tr, in.tag, in.duration, in.skip = r.tr, "traced", share(0.15), len(plainObs)
	tracedObs, tracedStart := openLoop(in)
	if sp.publishUnderRead {
		if err := pub.stopBeside(); err != nil {
			return err
		}
	}
	plain := judge(r.t, plainObs, pub.gens, plainStart.Sub(clock).Nanoseconds(), plainDur)
	traced := judge(r.t, tracedObs, pub.gens, tracedStart.Sub(clock).Nanoseconds(), in.duration)
	r.count(plain.sent+traced.sent+pub.n, plain.bad()+traced.bad())
	if err := r.serveGuards(&plain); err != nil {
		return err
	}
	// Lateness is the host's doing, not the workload's: a run must not fail
	// on it, so it is reported (below) and warned about, and nothing more.
	late := p(plain.late, 0.99)
	if late > maxLateP99us {
		fmt.Fprintf(os.Stderr, "bench: %s: the open loop ran %.0f us late at p99 (over %.0f): the machine stalled the generator, and answer_p50_us and answer_p99_us of this run are of less than the offered rate\n", sp.name, late, maxLateP99us)
	}

	r.res.set("loadgen.sent", float64(plain.sent))
	r.res.set("loadgen.ok", float64(plain.ok))
	r.res.set("loadgen.failed", float64(plain.failed+plain.refused+plain.stale))
	r.res.set("loadgen.wrong", float64(plain.wrong))
	r.res.set("loadgen.late_p99_us", late)
	r.res.set("answer_p50_us", percentile(plain.latencyValues(), 0.5))
	p99, _ := windowedP99(plain.latencies, plain.elapsed, int(plainDur/openLoopWindow))
	r.res.set("answer_p99_us", p99)
	r.res.set("client.p95_us", p(plain.service, 0.95))
	r.res.set("client.max_us", p(plain.service, 1))
	r.res.set("httpserve.cache_hit_share", float64(plain.cached)/float64(plain.ok))
	r.res.set("httpserve.singleflight_shared_share", float64(plain.shared)/float64(plain.ok))
	if plain.followUps > 0 {
		r.res.set("serve.followup_resolved_share", float64(plain.resolved)/float64(plain.followUps))
	}
	rejected := uint64(0)
	for _, n := range r.d.nodes {
		rejected += n.srv.Stats().Admission.Rejected
	}
	r.res.set("httpserve.admission_rejected", float64(rejected))
	if traced.ok > 0 {
		p50plain, p50traced := percentile(plain.latencyValues(), 0.5), percentile(traced.latencyValues(), 0.5)
		r.res.set("trace.overhead_share", (p50traced-p50plain)/p50plain)
	}
	return nil
}

// preprocessLadder drives the pipeline's stages itself, one problem at a
// time on one goroutine — engine.EachProblem → Problem.GenerateFacts →
// summarize.AcquireEvaluator → Solver.Solve → Template.Render → Store.Add
// — and compares their sum with an untraced pipeline.Run.
func (r *run) preprocessLadder(ctx context.Context) (rebuild time.Duration, err error) {
	d := r.d
	solver, ok := pipeline.LookupSolver(r.sp.solver)
	if !ok {
		return 0, fmt.Errorf("solver %q is not registered", r.sp.solver)
	}
	sopts := d.popts.Solve
	sopts.MaxFacts = d.cfg.MaxFacts
	sopts.Workers = 1

	var generate, build, solve, render, add, inCallback time.Duration
	var nodes, dominated int64
	var factsEvaluated, groupsPruned int
	store := engine.NewStore()
	problemID := int64(0)
	var problems []engine.Problem
	start := time.Now()
	err = engine.EachProblem(d.rel, d.cfg, func(pr engine.Problem) error {
		t0 := time.Now()
		problemID++
		facts := pr.GenerateFacts(d.cfg.MaxFactDims)
		t1 := time.Now()
		e := summarize.AcquireEvaluator(pr.View, pr.Target, facts, pr.Prior)
		t2 := time.Now()
		sum, err := solver.Solve(ctx, e, pipeline.SolveOptions{Options: sopts, Query: pr.Query, FreeDims: pr.FreeDims})
		summarize.ReleaseEvaluator(e)
		t3 := time.Now()
		if err != nil {
			return err
		}
		text := d.popts.Template.Render(d.rel, pr.Query, sum.Facts)
		t4 := time.Now()
		store.Add(&engine.StoredSpeech{Query: pr.Query, Facts: sum.Facts, Utility: sum.Utility, PriorError: sum.PriorError, Text: text})
		t5 := time.Now()

		root := r.tr.record("problem", 0, problemID, t0, t5)
		r.tr.record("engine.Problem.GenerateFacts", root, problemID, t0, t1)
		r.tr.record("summarize.AcquireEvaluator", root, problemID, t1, t2)
		r.tr.record("pipeline.Solver.Solve", root, problemID, t2, t3)
		r.tr.record("engine.Template.Render", root, problemID, t3, t4)
		r.tr.record("engine.Store.Add", root, problemID, t4, t5)
		generate += t1.Sub(t0)
		build += t2.Sub(t1)
		solve += t3.Sub(t2)
		render += t4.Sub(t3)
		add += t5.Sub(t4)
		nodes += sum.Stats.NodesExpanded
		dominated += sum.Stats.DominatedSkipped
		factsEvaluated += sum.Stats.FactsEvaluated
		groupsPruned += sum.Stats.GroupsPruned
		if r.sp.solver == "E" && problemID%3 == 1 {
			problems = append(problems, pr)
		}
		inCallback += time.Since(t0)
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("pre-processing ladder: %w", err)
	}
	staged := time.Since(start)
	r.tr.record("engine.EachProblem", 0, 0, start, start.Add(staged))

	// The staged store must be the store pipeline.Run built at set-up.
	r.count(d.store.Len(), failedIf(!sameSpeeches(d.store, store.Freeze())))

	// Untraced runs at one worker and at the workload's two. A negative
	// overhead means the pipeline's overlap of enumeration, solving and
	// sinking hides more than its channels cost.
	var walls [2]time.Duration
	for i, workers := range []int{1, pipelineWorkers} {
		opts := d.popts
		opts.Workers = workers
		t0 := time.Now()
		_, stats, err := pipeline.Run(ctx, d.rel, d.cfg, opts)
		if err != nil {
			return 0, fmt.Errorf("pre-processing ladder: %w", err)
		}
		r.tr.record(fmt.Sprintf("pipeline.Run/%d", workers), 0, 0, t0, time.Now())
		r.count(stats.Problems+stats.Failed, stats.Failed+stats.TimedOut)
		walls[i] = stats.Elapsed
	}

	r.res.set("engine.problems_ns", float64(staged-inCallback))
	r.res.set("fact.generate_ns", float64(generate))
	r.res.set("summarize.evaluator_build_ns", float64(build))
	r.res.set("summarize.solve_ns", float64(solve))
	r.res.set("summarize.nodes_expanded", float64(nodes))
	r.res.set("summarize.facts_evaluated", float64(factsEvaluated))
	r.res.set("summarize.groups_pruned", float64(groupsPruned))
	r.res.set("summarize.dominated_skipped", float64(dominated))
	r.res.set("engine.render_ns", float64(render))
	r.res.set("engine.store_add_ns", float64(add))
	r.res.set("pipeline.overhead_ns", float64(walls[0]-staged))
	r.res.set("pipeline.worker_speedup", walls[0].Seconds()/walls[1].Seconds())
	return walls[1], r.exactParallelSpeedup(ctx, problems, sopts)
}

// exactParallelSpeedup times solver E against solver E-P at two search
// workers over every third problem of an exact workload. It reports 0 on
// the other workloads, and once E-P is no longer registered.
func (r *run) exactParallelSpeedup(ctx context.Context, problems []engine.Problem, sopts summarize.Options) error {
	seq, okSeq := pipeline.LookupSolver("E")
	par, okPar := pipeline.LookupSolver("E-P")
	if len(problems) == 0 || !okSeq || !okPar {
		return nil
	}
	var seqTime, parTime time.Duration
	for _, pr := range problems {
		facts := pr.GenerateFacts(r.d.cfg.MaxFactDims)
		for _, side := range []struct {
			solver  pipeline.Solver
			workers int
			total   *time.Duration
		}{{seq, 1, &seqTime}, {par, 2, &parTime}} {
			e := summarize.AcquireEvaluator(pr.View, pr.Target, facts, pr.Prior)
			opts := sopts
			opts.Workers = side.workers
			t0 := time.Now()
			_, err := side.solver.Solve(ctx, e, pipeline.SolveOptions{Options: opts, Query: pr.Query, FreeDims: pr.FreeDims})
			t1 := time.Now()
			summarize.ReleaseEvaluator(e)
			if err != nil {
				return fmt.Errorf("exact parallel speed-up: %w", err)
			}
			r.tr.record("pipeline.Solver.Solve/"+side.solver.Name(), 0, 0, t0, t1)
			*side.total += t1.Sub(t0)
		}
	}
	r.res.set("summarize.exact_parallel_speedup", seqTime.Seconds()/parTime.Seconds())
	return nil
}

// publishLadder publishes the first three deltas on the set-up's store,
// with no reads beside them, and reports every stage as timed from
// outside. It starts from the set-up's rows whatever tracedLoad published,
// so its counts repeat. rebuild is the wall time of a warm pipeline.Run at
// the workload's workers: what a publish is an alternative to.
func (r *run) publishLadder(ctx context.Context, rebuild time.Duration) error {
	pub := newPublisher(r, r.d)
	for i := 0; i < 3; i++ {
		if _, _, err := pub.publish(ctx); err != nil {
			return err
		}
	}
	r.count(pub.n, 0)
	s := pub.stages
	r.res.set("delta.table_apply_ns", median(s.tableApply))
	r.res.set("delta.plan_ns", median(s.plan))
	r.res.set("delta.apply_ns", median(s.apply))
	r.res.set("delta.patch_write_ns", median(s.patchWrite))
	r.res.set("httpserve.swap_ns", median(s.swap))
	r.res.set("delta.dirty_problems", float64(s.dirty))
	r.res.set("delta.solved", float64(s.solved))
	r.res.set("delta.retained", float64(s.retained))
	r.res.set("delta.rebuild_ratio", rebuild.Seconds()*1e3/median(pub.ms))
	return nil
}
