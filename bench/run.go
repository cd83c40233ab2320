package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cicero/internal/pipeline"
	"cicero/internal/serve"
)

// runOptions are the inputs of one run of one workload.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
	dir     string // where snapshots, patches and span files go
	setups  int    // set-ups timed for setup_s: the one that is kept, the others spread over the rounds
}

// guardError reports that a workload's precondition did not hold: what it
// measured is not what its name says, so the run prints no numbers.
type guardError struct {
	rail   string
	detail string
}

func (e *guardError) Error() string {
	return fmt.Sprintf("guard rail %s: %s", e.rail, e.detail)
}

// Guard-rail thresholds.
const (
	// maxLateP99us is how late the real-time open loop may send at p99 (when
	// the connection was free) before the traced run warns that the offered
	// rate was not offered. The timers of the machines this runs on fire up
	// to a millisecond late by themselves; a generator that cannot keep its
	// schedule falls behind by tens.
	maxLateP99us     = 5000.0
	minShapeShare    = 0.05 // each scan shape's share of dialog_scan turns
	minResolvedShare = 0.95 // follow-up turns that resolve
	warmupRequests   = 2000
	utilityTolerance = 1e-9
	serveRounds      = 20
	// sequenceLength is how many requests (turns, for dialogues) a
	// workload's send sequence holds; every load phase cycles through it.
	sequenceLength = 3000
)

// run is the state of one run of one workload.
type run struct {
	sp   *spec
	opt  runOptions
	d    *deployment
	t    *traffic
	res  *result
	conn int // connections of the warm-up and of the real-time open loop

	setupSeconds    []float64        // one per set-up
	pipeRuns        []pipeline.Stats // every pipeline.Run of the run, set-ups included
	preprocessSpent time.Duration    // in the runs of the pre-process phase
	tr              *tracer
}

// runWorkload runs one workload end to end and returns its result line.
func runWorkload(ctx context.Context, sp *spec, opt runOptions) (*result, error) {
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive, got %g", opt.seconds)
	}
	defs := endToEnd
	if opt.trace {
		defs = perLayer
	}
	r := &run{sp: sp, opt: opt, res: newResult(defs), conn: min(runtime.NumCPU(), 2)}
	if opt.trace {
		r.tr = newTracer()
	}
	if err := r.setUp(ctx); err != nil {
		return nil, err
	}
	defer r.d.close()

	var err error
	if opt.trace {
		err = r.traced(ctx)
	} else {
		err = r.measured(ctx)
	}
	if err != nil {
		return nil, err
	}
	r.res.Correct = r.res.Failed == 0
	return r.res, nil
}

// count adds operations to the result line's totals.
func (r *run) count(attempted, failed int) {
	r.res.Attempted += attempted
	r.res.Failed += failed
}

// setUp generates the traffic, sets the system up — data, pre-processing,
// snapshot, map, boot, warm-up — and builds the oracle over its store.
func (r *run) setUp(ctx context.Context) error {
	sp := r.sp
	rel, err := sp.generate()
	if err != nil {
		return err
	}
	cfg, _, err := sp.config(rel)
	if err != nil {
		return err
	}
	if r.t, err = newTraffic(sp, rel, cfg, newExtractor(sp, rel), r.opt.seed, sequenceLength); err != nil {
		return err
	}
	if r.d, err = r.timedSetUp(ctx); err != nil {
		return err
	}

	oracle := serve.New(r.d.rel, r.d.nodes[0].view, newExtractor(sp, r.d.rel), serve.Options{})
	if err := r.t.buildOracle(oracle); err != nil {
		return err
	}
	if sp.traffic == dialogTraffic {
		shares := r.t.shapeShares()
		for _, shape := range scanShapes {
			if shares[shape] < minShapeShare {
				return &guardError{"scan_shape_share", fmt.Sprintf("%s is %.3f of %s turns, want at least %.2f", shape, shares[shape], sp.name, minShapeShare)}
			}
		}
	}
	return nil
}

// timedSetUp sets the system up once, warm-up included, and records how
// long that took and the pipeline.Run in it. The deployment is the caller's
// to close.
func (r *run) timedSetUp(ctx context.Context) (*deployment, error) {
	start := time.Now()
	d, err := deploy(ctx, r.sp, r.opt.dir, len(r.setupSeconds))
	if err != nil {
		return nil, err
	}
	warmStart := time.Now()
	if err := r.warmUp(d); err != nil {
		d.close()
		return nil, err
	}
	d.times.warm = time.Since(warmStart)
	d.times.total = time.Since(start)
	r.setupSeconds = append(r.setupSeconds, d.times.total.Seconds())
	r.pipeRuns = append(r.pipeRuns, d.stats)
	r.count(d.stats.Problems+d.stats.Failed, d.stats.Failed+d.stats.TimedOut)
	if err := r.checkPipeline(d.stats); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// checkPipeline applies the pre-processing guard rail and oracle to one
// pipeline.Run: no timeouts, no failures, and the utility of every run
// equal to the first one's.
func (r *run) checkPipeline(s pipeline.Stats) error {
	if s.TimedOut > 0 {
		return &guardError{"exact_timeout", fmt.Sprintf("%d problems of %s hit the %v solver timeout", s.TimedOut, r.sp.name, exactTimeout)}
	}
	first := r.pipeRuns[0]
	if s.Problems != first.Problems || math.Abs(s.AvgScaledUtility()-first.AvgScaledUtility()) > utilityTolerance {
		r.count(0, 1)
		fmt.Fprintf(os.Stderr, "bench: %s: pipeline.Run does not repeat: %d problems at utility %.12f, first run %d at %.12f\n",
			r.sp.name, s.Problems, s.AvgScaledUtility(), first.Problems, first.AvgScaledUtility())
	}
	return nil
}

// warmUp sends every distinct text once and then the head of the send
// sequence, closed loop, and discards the answers: caches fill and lazy
// set-up finishes before anything is timed.
func (r *run) warmUp(d *deployment) error {
	lists := r.t.split(r.conn)
	errs := make(chan error, r.conn) // one send per sender
	for c := 0; c < r.conn; c++ {
		go func(c int) {
			cl := newClient(d.answerURL())
			defer cl.close()
			in := phaseInput{t: r.t, tag: "warm"}
			if len(r.t.sessions) == 0 {
				for i := c; i < len(r.t.bodies); i += r.conn {
					if _, err := cl.post(r.t.bodies[i]); err != nil {
						errs <- err
						return
					}
				}
			}
			for k := 0; k < warmupRequests/r.conn && k < len(lists[c]); k++ {
				body, _ := in.body(lists[c][k], 0)
				if _, err := cl.post(body); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(c)
	}
	var first error
	for c := 0; c < r.conn; c++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("warm-up: %w", err)
		}
	}
	return first
}

// measured is the untraced run: the phases that give the end-to-end
// metrics. Serving and pre-processing are interleaved in serveRounds
// rounds, so that a slow spell of the host, which lasts seconds, touches
// each metric a little instead of one of them wholly.
//
// A round is as many pipeline.Run as keep that phase on its share of the
// time, one probe slice (one client, one request at a time) and one
// closed-loop slice (nproc clients); every slice opens connections of its
// own. How fast a loopback connection is served depends on where the kernel
// and the scheduler happen to place it, and stays so for its lifetime: 3 s
// closed loops on one pair of connections differed by a quarter from run to
// run, the medians of ten short slices by a twentieth. The set-ups after the
// first are spread over the rounds too, each beside the deployment that
// serves. What is reported of the repeated measurements is their
// undisturbed estimate (estimate.go).
func (r *run) measured(ctx context.Context) error {
	sp := r.sp
	preDur, serveDur, pubDur := sp.plan(r.opt.seconds)
	sliceDur := serveDur / (2 * serveRounds)
	pub := newPublisher(r, r.d)
	clock := time.Now()
	if sp.publishUnderRead {
		pub.startBeside(ctx, clock)
	}
	type slice struct {
		obs    []obs
		offset int64 // start on the generations' clock
	}
	var probes, closeds []slice
	skip := 0
	for k := 0; k < serveRounds; k++ {
		if len(r.setupSeconds) < 1+k*r.opt.setups/serveRounds {
			// A set-up beside the deployment that serves, and one quiet
			// publish on it, so that publish_ms too is sampled over the whole
			// run: the deployment that serves cannot take one before the
			// reads the static oracle judges are over.
			d, err := r.timedSetUp(ctx)
			if err != nil {
				return err
			}
			if pubDur > 0 {
				beside := newPublisher(r, d)
				err = beside.quietUntil(ctx, 1)
				pub.ms = append(pub.ms, beside.ms...)
				r.count(beside.attempted, beside.failed)
			}
			d.close()
			if err != nil {
				return err
			}
		}
		due := float64(k+1) / serveRounds
		if err := r.preprocessUntil(ctx, time.Duration(due*float64(preDur))); err != nil {
			return err
		}
		in := phaseInput{
			url: r.d.answerURL(), t: r.t, can: pub.can, tag: fmt.Sprintf("probe%d", k),
			conns: 1, duration: sliceDur, skip: skip,
		}
		observations, start := closedLoop(in)
		probes = append(probes, slice{observations, start.Sub(clock).Nanoseconds()})
		skip += len(observations)
		in.conns, in.tag, in.skip = runtime.NumCPU(), fmt.Sprintf("closed%d", k), skip
		observations, start = closedLoop(in)
		closeds = append(closeds, slice{observations, start.Sub(clock).Nanoseconds()})
		skip += len(observations)
	}
	if sp.publishUnderRead {
		if err := pub.stopBeside(); err != nil {
			return err
		}
	}
	var probe, closed tally
	var p50s, rates []float64
	for k := range probes {
		ty := judge(r.t, probes[k].obs, pub.gens, probes[k].offset, sliceDur)
		p50s = append(p50s, percentile(ty.latencyValues(), 0.50))
		probe.add(ty)
		ty = judge(r.t, closeds[k].obs, pub.gens, closeds[k].offset, sliceDur)
		rates = append(rates, float64(ty.ok)/ty.elapsed)
		closed.add(ty)
	}
	probes, closeds = nil, nil
	r.count(probe.sent+closed.sent, probe.bad()+closed.bad())
	if err := r.serveGuards(&probe); err != nil {
		return err
	}
	// Publishes change the answers, so the quiet ones come after the reads
	// the static oracle judges.
	if err := pub.quietUntil(ctx, pubDur); err != nil {
		return err
	}
	if err := pub.verifyRebuild(ctx); err != nil {
		return err
	}
	r.count(pub.attempted, pub.failed)

	r.res.set("setup_s", undisturbed(r.setupSeconds, lowerIsBetter))
	r.res.set("roundtrip_p50_us", undisturbed(p50s, lowerIsBetter))
	r.res.set("saturation_rps", undisturbed(rates, higherIsBetter))
	r.res.set("preprocess_problems_per_s", r.problemsPerSecond())
	r.res.set("avg_scaled_utility", r.pipeRuns[0].AvgScaledUtility())
	r.res.set("publish_ms", undisturbed(pub.ms, lowerIsBetter))
	r.res.probeP99, _ = windowedP99(probe.latencies, probe.elapsed, serveRounds)

	// Everything the harness only needed for the numbers above is dropped;
	// the servers, their stores, the publisher's table and the traffic
	// stay live, as they would in a deployment.
	probe, closed = tally{}, tally{}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.res.set("heap_live_mb", float64(ms.HeapAlloc)/(1<<20))
	runtime.KeepAlive(pub)
	return nil
}

// serveGuards checks that a load phase measured what the workload is named
// for.
func (r *run) serveGuards(ty *tally) error {
	sp := r.sp
	if ty.ok == 0 {
		return &guardError{"no_answers", fmt.Sprintf("%s: no correct answer out of %d", sp.name, ty.sent)}
	}
	hit := float64(ty.cached) / float64(ty.ok)
	if hit < sp.hitMin || hit > sp.hitMax {
		return &guardError{"cache_hit_share", fmt.Sprintf("%s: cache hit share %.3f is outside [%.2f, %.2f]", sp.name, hit, sp.hitMin, sp.hitMax)}
	}
	if ty.followUps > 0 {
		if share := float64(ty.resolved) / float64(ty.followUps); share < minResolvedShare {
			return &guardError{"followup_resolved_share", fmt.Sprintf("%s: %.3f of follow-ups resolved, want %.2f", sp.name, share, minResolvedShare)}
		}
	}
	return nil
}

// preprocessUntil runs pipeline.Run back to back until the runs of the
// pre-process phase have taken budget in all.
func (r *run) preprocessUntil(ctx context.Context, budget time.Duration) error {
	for r.preprocessSpent < budget {
		_, stats, err := pipeline.Run(ctx, r.d.rel, r.d.cfg, r.d.popts)
		if err != nil {
			return fmt.Errorf("pre-process phase: %w", err)
		}
		r.preprocessSpent += stats.Elapsed
		r.pipeRuns = append(r.pipeRuns, stats)
		r.count(stats.Problems+stats.Failed, stats.Failed+stats.TimedOut)
		if err := r.checkPipeline(stats); err != nil {
			return err
		}
	}
	return nil
}

// problemsPerSecond is the undisturbed throughput over every pipeline.Run
// of the run.
func (r *run) problemsPerSecond() float64 {
	rates := make([]float64, len(r.pipeRuns))
	for i, s := range r.pipeRuns {
		rates[i] = float64(s.Problems) / s.Elapsed.Seconds()
	}
	return undisturbed(rates, higherIsBetter)
}

// scratchFile names a file in the run's directory.
func (r *run) scratchFile(name string) string {
	return filepath.Join(r.opt.dir, r.sp.name+"-"+name)
}
