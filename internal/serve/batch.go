package serve

import (
	"sync"
	"time"

	"cicero/internal/stats"
)

// This file is the concurrent half of the serving layer: a batch mode
// that replays a query log with N workers against one shared Answerer,
// the workload shape of the ROADMAP's heavy-multi-user north star. The
// latency percentiles it reports are the serving-side counterpart of the
// paper's Figure 10 lookup-latency measurement.

// BatchResult is the outcome of replaying a request log.
type BatchResult struct {
	// Answers holds one answer per input, in input order.
	Answers []Answer
	// Answered counts answers with real content (Answer.Answered).
	Answered int
	// Elapsed is the wall-clock time for the whole batch.
	Elapsed time.Duration
	// Throughput is requests per second over the batch.
	Throughput float64
	// Latency aggregates the per-request serving latencies.
	Latency stats.LatencySnapshot
}

// AnswerBatch replays texts against the Answerer with the given number of
// concurrent workers (values below 2 run sequentially) and returns every
// answer plus latency percentiles. The Answerer is stateless, so workers
// share it without synchronization; repeat requests see no history.
func (a *Answerer) AnswerBatch(texts []string, workers int) BatchResult {
	start := time.Now()
	answers := make([]Answer, len(texts))
	if workers < 2 {
		for i, t := range texts {
			answers[i] = a.Answer(t)
		}
	} else {
		if workers > len(texts) {
			workers = len(texts)
		}
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					answers[i] = a.Answer(texts[i])
				}
			}()
		}
		for i := range texts {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	res := BatchResult{Answers: answers, Elapsed: time.Since(start)}
	lats := make([]time.Duration, len(answers))
	for i, ans := range answers {
		if ans.Answered {
			res.Answered++
		}
		lats[i] = ans.Latency
	}
	res.Latency = stats.SummarizeLatencies(lats)
	if res.Elapsed > 0 {
		res.Throughput = float64(len(texts)) / res.Elapsed.Seconds()
	}
	return res
}
