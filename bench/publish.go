package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"time"

	"cicero/internal/delta"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/relation"
	"cicero/internal/serve"
	"cicero/internal/snapshot"
	"cicero/internal/voice"
)

// canariesPerPublish bounds the dirty-key utterances taken from one
// publish.
const canariesPerPublish = 8

// publisher applies synthetic deltas to a deployment, each chained on the
// previous patched generation: delta.Table.Apply → delta.Apply →
// Server.SwapDataFor on every node.
type publisher struct {
	r       *run
	d       *deployment // the one it publishes to
	tab     *delta.Table
	rel     *relation.Relation
	store   engine.StoreView
	phrases map[string][]string

	n          int           // publishes so far
	ms         []float64     // publish latencies
	quietSpent time.Duration // in the publishes of quietUntil
	// last is the most recent publish's result.
	last *delta.Result

	// For reads beside publishes: the generations the validation pass
	// judges against, and the canaries handed to the senders.
	gens []generation
	can  *canaries

	// Canary checks of the quiet phase and the final rebuild comparison.
	attempted, failed int

	stop chan struct{}
	done sync.WaitGroup
	err  error

	// stages accumulates the traced run's split of a publish.
	stages publishStages
}

// publishStages sums the stages of the traced publishes.
type publishStages struct {
	tableApply, plan, apply, patchWrite, swap []float64 // ns per publish
	dirty, solved, retained                   int
}

func newPublisher(r *run, d *deployment) *publisher {
	return &publisher{
		r:       r,
		d:       d,
		tab:     delta.FromRelation(d.rel),
		rel:     d.rel,
		store:   d.nodes[0].view,
		phrases: voice.SpokenTargetPhrases(voice.DefaultSamples(r.sp.dataset)),
		can:     &canaries{},
	}
}

// publish applies one delta and swaps it in. It returns when the new
// generation is live on every node, with the times bracketing the swaps.
func (p *publisher) publish(ctx context.Context) (swapStart, swapEnd time.Time, err error) {
	d := p.d
	batch := delta.Synthesize(p.rel, publishOps, dataSeed+int64(p.n))
	traced := p.r.tr != nil
	t0 := time.Now()
	images, err := p.tab.Apply(batch)
	if err != nil {
		return t0, t0, fmt.Errorf("publish %d: %w", p.n, err)
	}
	t1 := time.Now()
	next := p.tab.Rel()
	var planTime time.Duration
	if traced {
		// delta.Apply plans internally; the traced run repeats the plan
		// from outside to see its share.
		tp := time.Now()
		delta.PlanDirty(p.rel, next, d.cfg, images)
		planTime = time.Since(tp)
	}
	t2 := time.Now()
	res, err := delta.Apply(ctx, p.store, p.rel, next, d.cfg, d.popts, images)
	if err != nil {
		return t0, t0, fmt.Errorf("publish %d: %w", p.n, err)
	}
	t3 := time.Now()
	var patchTime time.Duration
	if traced {
		tp := time.Now()
		fp := pipeline.Fingerprint(dataSeed, d.cfg, p.r.sp.solver)
		patch := delta.NewPatch(fp, pipeline.FingerprintDelta(dataSeed, d.cfg, p.r.sp.solver, batch.Tag()), batch, res)
		path := p.r.scratchFile("delta.patch")
		if err := snapshot.WritePatchFile(path, patch); err != nil {
			return t0, t0, fmt.Errorf("publish %d: %w", p.n, err)
		}
		patchTime = time.Since(tp)
		if err := os.Remove(path); err != nil {
			return t0, t0, err
		}
	}
	swapStart = time.Now()
	if err := d.swap(ctx, next, res.Store); err != nil {
		return t0, t0, fmt.Errorf("publish %d: %w", p.n, err)
	}
	swapEnd = time.Now()
	p.ms = append(p.ms, float64(swapEnd.Sub(t0)-planTime-patchTime)/float64(time.Millisecond))
	if traced {
		tr := p.r.tr
		root := tr.record("publish", 0, int64(p.n+1), t0, swapEnd)
		tr.record("delta.Table.Apply", root, int64(p.n+1), t0, t1)
		tr.record("delta.Apply", root, int64(p.n+1), t2, t3)
		tr.record("httpserve.SwapDataFor", root, int64(p.n+1), swapStart, swapEnd)
		s := &p.stages
		s.tableApply = append(s.tableApply, float64(t1.Sub(t0)))
		s.plan = append(s.plan, float64(planTime))
		s.apply = append(s.apply, float64(t3.Sub(t2)))
		s.patchWrite = append(s.patchWrite, float64(patchTime))
		s.swap = append(s.swap, float64(swapEnd.Sub(swapStart)))
		s.dirty += res.DirtyProblems
		s.solved += res.Solved
		s.retained += res.Retained
	}
	p.rel, p.store, p.last = next, res.Store, res
	p.n++
	return swapStart, swapEnd, nil
}

// dirtyUtterances renders up to canariesPerPublish of the last publish's
// re-solved speeches as the question that asks for exactly that speech.
func (p *publisher) dirtyUtterances() (texts, speeches []string) {
	for _, up := range p.last.Upserts {
		if len(texts) == canariesPerPublish {
			break
		}
		text := storeKeyUtterance(up.Query, p.phrases)
		if classifiesTo(text, p.d.ex, up.Query.Key()) {
			texts = append(texts, text)
			speeches = append(speeches, up.Text)
		}
	}
	return texts, speeches
}

// quietUntil publishes back to back, with no reads beside it, until the
// quiet publishes have taken budget in all. After each publish it asks
// for the dirty keys through the front door: the answer must be the speech
// just published.
func (p *publisher) quietUntil(ctx context.Context, budget time.Duration) error {
	if p.quietSpent >= budget {
		return nil
	}
	cl := newClient(p.d.answerURL())
	defer cl.close()
	for p.quietSpent < budget {
		if _, _, err := p.publish(ctx); err != nil {
			return err
		}
		p.quietSpent += time.Duration(p.ms[len(p.ms)-1] * float64(time.Millisecond))
		texts, speeches := p.dirtyUtterances()
		for i, text := range texts {
			p.attempted++
			rep, err := cl.post(statelessBody(text))
			if err != nil || rep.status != 200 || rep.hash != answerHash(serve.Summary.String(), speeches[i]) {
				p.failed++
			}
		}
	}
	return nil
}

// startBeside runs the publisher beside the read phases: one publish
// every publishEvery seconds. clock is the epoch of the generations'
// timestamps.
func (p *publisher) startBeside(ctx context.Context, clock time.Time) {
	p.gens = []generation{p.oracle(0, 0, nil)}
	p.stop = make(chan struct{})
	p.done.Add(1)
	go func() {
		defer p.done.Done()
		tick := time.NewTicker(time.Duration(publishEvery * float64(time.Second)))
		defer tick.Stop()
		var previous []int32
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			swapStart, swapEnd, err := p.publish(ctx)
			if err != nil {
				p.err = err
				return
			}
			// The new generation's canaries, and the answers it gives to
			// them, to the previous ones still in flight, and to every
			// plain text.
			texts, _ := p.dirtyUtterances()
			set := &canarySet{}
			for _, text := range texts {
				set.ids = append(set.ids, int32(len(p.can.all)))
				set.bodies = append(set.bodies, statelessBody(text))
				p.can.all = append(p.can.all, text)
			}
			p.gens = append(p.gens, p.oracle(swapStart.Sub(clock).Nanoseconds(), swapEnd.Sub(clock).Nanoseconds(), append(previous, set.ids...)))
			p.can.cur.Store(set)
			previous = set.ids
		}
	}()
}

// stopBeside ends the publisher goroutine and waits for it.
func (p *publisher) stopBeside() error {
	close(p.stop)
	p.done.Wait()
	return p.err
}

// oracle answers every plain text and the given canaries on an Answerer
// of its own over the publisher's current generation.
func (p *publisher) oracle(swapStart, swapEnd int64, canaryIDs []int32) generation {
	a := serve.New(p.rel, p.store, p.d.ex, serve.Options{})
	g := generation{swapStart: swapStart, swapEnd: swapEnd, texts: make([]uint64, len(p.r.t.texts)), canary: map[int32]uint64{}}
	for i, text := range p.r.t.texts {
		ans := a.Answer(text)
		g.texts[i] = answerHash(ans.Kind.String(), ans.Text)
	}
	for _, id := range canaryIDs {
		ans := a.Answer(p.can.all[id])
		g.canary[id] = answerHash(ans.Kind.String(), ans.Text)
	}
	return g
}

// verifyRebuild checks the chain of publishes against the house oracle:
// the final patched store must equal a from-scratch pipeline.Run over the
// final rows, speech for speech.
func (p *publisher) verifyRebuild(ctx context.Context) error {
	if p.n == 0 {
		return nil
	}
	d := p.d
	rebuilt, _, err := pipeline.Run(ctx, p.rel, d.cfg, d.popts)
	if err != nil {
		return fmt.Errorf("rebuild after %d publishes: %w", p.n, err)
	}
	p.attempted++
	if !sameSpeeches(rebuilt, p.store) {
		p.failed++
		fmt.Fprintf(os.Stderr, "bench: %s: the store after %d publishes differs from a rebuild over the final rows\n", p.r.sp.name, p.n)
	}
	return nil
}

// sameSpeeches reports whether two stores hold the same speeches: key,
// text and utility, bit for bit, in canonical-key order.
func sameSpeeches(a, b engine.StoreView) bool {
	want, got := a.Speeches(), b.Speeches()
	if len(want) != len(got) {
		return false
	}
	for i := range want {
		if want[i].Query.Key() != got[i].Query.Key() || want[i].Text != got[i].Text || want[i].Utility != got[i].Utility {
			return false
		}
	}
	return true
}
