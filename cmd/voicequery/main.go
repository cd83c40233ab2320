// Command voicequery drives the serving layer: it pre-processes a data
// set into a speech store, then either runs an interactive (typed) voice
// REPL — the full run-time pipeline of the paper's Figure 2 minus the
// actual microphone — or replays a query log and reports
// serving-latency percentiles.
//
// The REPL is a dialogue session: after a followable answer, elliptical
// follow-ups ("what about Summer?", "and the lowest?", "how about the
// top three?") resolve against the previous question.
//
// Usage:
//
//	voicequery -data flights
//	> cancellations in Winter?
//
//	voicequery -data flights -batch queries.txt
//
// In batch mode the input file holds one request per line ("-" reads
// stdin); the report gives per-kind counts, throughput, and p50/p95/p99
// serving latency.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"time"

	"cicero/internal/dataset"
	"cicero/internal/engine"
	"cicero/internal/pipeline"
	"cicero/internal/serve"
	"cicero/internal/stats"
	"cicero/internal/voice"
)

func main() {
	var (
		dataName  = flag.String("data", "flights", "data set: acs, stackoverflow, flights, primaries, housing")
		maxLen    = flag.Int("maxlen", 2, "maximal query length")
		seed      = flag.Int64("seed", 1, "data generation seed")
		batchPath = flag.String("batch", "", "replay a request log (one per line, \"-\" for stdin) instead of the REPL")
	)
	flag.Parse()

	rel := dataset.ByName(strings.ToLower(*dataName), *seed)
	if rel == nil {
		fmt.Fprintf(os.Stderr, "voicequery: unknown data set %q\n", *dataName)
		os.Exit(1)
	}

	// Read the batch input before the (expensive) pre-processing so a
	// bad path or empty log fails fast.
	var batch []string
	if *batchPath != "" {
		var err error
		if batch, err = readBatch(*batchPath); err != nil {
			fmt.Fprintln(os.Stderr, "voicequery:", err)
			os.Exit(1)
		}
	}

	cfg := engine.DefaultConfig(rel)
	cfg.MaxQueryLen = *maxLen
	fmt.Fprintf(os.Stderr, "pre-processing %s ...", rel.Name())
	start := time.Now()
	// ctrl-C during the batch cancels it promptly instead of hanging.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	store, stats, err := pipeline.Run(ctx, rel, cfg, pipeline.Options{
		Solver:  string(engine.AlgGreedyOpt),
		Workers: runtime.GOMAXPROCS(0),
	})
	stopSignals()
	if err != nil {
		fmt.Fprintln(os.Stderr, "\nvoicequery:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, " %d speeches in %v\n", stats.Speeches, time.Since(start).Round(time.Millisecond))

	ex := voice.NewExtractor(rel, voice.DefaultSamples(strings.ToLower(*dataName)), *maxLen)
	answerer := serve.New(rel, store, ex, serve.Options{})

	if *batchPath != "" {
		runBatch(answerer, batch)
		return
	}
	runREPL(answerer)
}

// readBatch loads a request log, one request per line ("-" reads stdin).
func readBatch(path string) ([]string, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	var texts []string
	scanner := bufio.NewScanner(r)
	for scanner.Scan() {
		if t := strings.TrimSpace(scanner.Text()); t != "" {
			texts = append(texts, t)
		}
	}
	if err := scanner.Err(); err != nil {
		return nil, err
	}
	if len(texts) == 0 {
		return nil, fmt.Errorf("batch input %q holds no requests", path)
	}
	return texts, nil
}

// runREPL is the interactive loop: a thin shell over one serving session.
func runREPL(a *serve.Answerer) {
	session := a.NewSession()
	fmt.Println("Ask about the data (e.g. \"cancellations in Winter?\", \"which season has the most cancellations?\",")
	fmt.Println("then follow up with \"what about Summer?\" or \"and the lowest?\"); \"help\" lists columns; ctrl-D exits.")
	scanner := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !scanner.Scan() {
			break
		}
		text := strings.TrimSpace(scanner.Text())
		if text == "" {
			continue
		}
		ans := session.Answer(text)
		fmt.Println(ans.Text)
		if ans.Kind == serve.Summary {
			fmt.Printf("  (matched %q, served in %v)\n",
				ans.Matched.Query.String(), ans.Latency)
		}
	}
}

// runBatch replays a request log and prints the serving report:
// per-kind counts, throughput, and latency percentiles.
func runBatch(a *serve.Answerer, texts []string) {
	start := time.Now()
	byKind := map[serve.Kind]int{}
	answered := 0
	lats := make([]time.Duration, len(texts))
	for i, text := range texts {
		ans := a.Answer(text)
		byKind[ans.Kind]++
		if ans.Answered {
			answered++
		}
		lats[i] = ans.Latency
	}
	elapsed := time.Since(start)
	fmt.Printf("served %d requests in %v (%.0f req/s)\n",
		len(texts), elapsed.Round(time.Millisecond), float64(len(texts))/elapsed.Seconds())
	fmt.Printf("answered: %d (%.0f%%)\n", answered, 100*float64(answered)/float64(len(texts)))
	for _, k := range []serve.Kind{serve.Summary, serve.Extremum, serve.TopK,
		serve.Trend, serve.Constrained, serve.Comparison, serve.Help, serve.Repeat,
		serve.FollowUp, serve.Unsupported, serve.Unknown} {
		if byKind[k] > 0 {
			fmt.Printf("  %-12s %d\n", k.String(), byKind[k])
		}
	}
	lat := stats.SummarizeLatencies(lats)
	fmt.Printf("latency p50 %v  p95 %v  p99 %v  max %v\n", lat.P50, lat.P95, lat.P99, lat.Max)
}
