package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/httpserve"
)

// client is one sender: a goroutine's own keep-alive connection.
type client struct {
	hc  *http.Client
	url string
	buf bytes.Buffer
}

func newClient(url string) *client {
	return &client{
		url: url,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is what a sender keeps of one response.
type reply struct {
	status   int
	hash     uint64 // answerHash of the response's kind and text
	kind     string
	answered bool
	cached   bool
	shared   bool
	stale    bool
	attempts int // X-Cicero-Attempts, behind a router
}

// wireAnswer is the part of httpserve.AnswerResponse (plus the router's
// stale marker) the benchmark reads.
type wireAnswer struct {
	Kind     string `json:"kind"`
	Text     string `json:"text"`
	Answered bool   `json:"answered"`
	Cached   bool   `json:"cached"`
	Shared   bool   `json:"shared"`
	Stale    bool   `json:"stale"`
}

// post sends one request body and reads the whole response.
func (c *client) post(body []byte) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, c.url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, err
	}
	r := reply{status: resp.StatusCode}
	if a := resp.Header.Get("X-Cicero-Attempts"); a != "" {
		r.attempts, _ = strconv.Atoi(a) // absent or malformed counts as zero
	}
	if r.status != http.StatusOK {
		return r, nil
	}
	var w wireAnswer
	if err := json.Unmarshal(c.buf.Bytes(), &w); err != nil {
		return r, fmt.Errorf("decode answer: %w", err)
	}
	r.hash, r.kind = answerHash(w.Kind, w.Text), w.Kind
	r.answered, r.cached, r.shared, r.stale = w.Answered, w.Cached, w.Shared, w.Stale
	return r, nil
}

// obs is one request as its sender saw it. Times are nanoseconds since
// the phase started: due is the request's place in the schedule (when it
// was sent, in a closed loop), from the instant its latency is timed from
// (see openLoop).
type obs struct {
	due, from, sent, done int64
	// late is how long after due an open loop's sender sent the request
	// although its connection was free: the generator's own lateness.
	// Negative when that does not apply.
	late   int64
	expect int32
	canary int32 // index into canaries.all; -1 for a plain request
	rep    reply
	failed bool // transport error or undecodable body
}

// canarySet is the dirty-key utterances of the most recent publish.
type canarySet struct {
	bodies [][]byte
	ids    []int32 // index into canaries.all
}

// canaries hands the current canary set to the senders and keeps every
// canary utterance ever published for the validation pass.
type canaries struct {
	cur atomic.Pointer[canarySet]
	all []string // appended only by the publisher
}

// phaseInput is what a load phase needs.
type phaseInput struct {
	url      string
	t        *traffic
	conns    int
	duration time.Duration
	rate     float64 // open loop only
	tag      string  // makes session ids unique per phase
	skip     int     // where in the send sequence the phase starts
	can      *canaries
	tr       *tracer // nil for an untraced phase
}

// body returns the request body for rq on its pass-th replay.
func (in *phaseInput) body(rq request, pass int) ([]byte, int32) {
	if rq.canary && in.can != nil {
		if set := in.can.cur.Load(); set != nil && len(set.bodies) > 0 {
			k := int(rq.expect) % len(set.bodies)
			return set.bodies[k], set.ids[k]
		}
	}
	if rq.dialogue < 0 {
		return in.t.bodies[rq.text], -1
	}
	b, err := json.Marshal(httpserve.AnswerRequest{
		Text:    in.t.texts[rq.text],
		Session: fmt.Sprintf("%s.%s.%d", in.t.sessions[rq.dialogue], in.tag, pass),
	})
	if err != nil {
		panic(err) // strings always marshal
	}
	return b, -1
}

// firstIndex is where a phase starts in one connection's list: at the
// connection's share of skip, moved on to the next dialogue opening so no
// session starts mid-dialogue.
func (in *phaseInput) firstIndex(list []request) int {
	at := in.skip / max(in.conns, 1)
	for n := 0; n < len(list) && list[at%len(list)].dialogue >= 0 && !list[at%len(list)].opening; n++ {
		at++
	}
	return at
}

// waitUntil sleeps until due.
func waitUntil(due time.Time) {
	for d := time.Until(due); d > 0; d = time.Until(due) {
		sleep(d)
	}
}

// send posts one request and records it. busy says the connection was
// still waiting for its previous answer when the request fell due.
func (in *phaseInput) send(c *client, start time.Time, due time.Time, busy bool, rq request, pass int, id int64) (obs, time.Time) {
	body, canary := in.body(rq, pass)
	sent := time.Now()
	rep, err := c.post(body)
	done := time.Now()
	if in.tr != nil {
		in.tr.record("client.request", 0, id, sent, done)
	}
	from := sent
	if busy {
		from = due
	}
	return obs{
		due: due.Sub(start).Nanoseconds(), from: from.Sub(start).Nanoseconds(),
		sent: sent.Sub(start).Nanoseconds(), done: done.Sub(start).Nanoseconds(),
		late: -1, expect: rq.expect, canary: canary, rep: rep, failed: err != nil,
	}, done
}

// openLoop sends the traffic on a fixed schedule — request k of
// connection c is due at (k*conns+c)/rate — over conns keep-alive
// connections, each a sequential sender. A request that falls due while
// its connection still waits for the previous answer is timed from its due
// time, so the wait a stall imposes on the requests behind it is part of
// their latency: a slow server cannot hide behind a waiting client. A
// request whose connection was free is timed from when its sender woke;
// how late the sender's timer fired is the generator's, not the system's,
// and is reported on its own (late).
func openLoop(in phaseInput) ([]obs, time.Time) {
	lists := in.t.split(in.conns)
	out := make([][]obs, in.conns)
	interval := time.Duration(float64(time.Second) / in.rate)
	start := time.Now().Add(5 * time.Millisecond)
	var wg sync.WaitGroup
	for c := 0; c < in.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(in.url)
			defer cl.close()
			list := lists[c]
			if len(list) == 0 {
				return
			}
			var prevDone time.Time
			first := in.firstIndex(list)
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k*in.conns+c) * interval)
				if due.Sub(start) >= in.duration {
					return
				}
				waitUntil(due)
				busy := prevDone.After(due)
				var o obs
				at := first + k
				o, prevDone = in.send(cl, start, due, busy, list[at%len(list)], at/len(list), int64(k*in.conns+c+1))
				if !busy {
					o.late = o.sent - o.due
				}
				out[c] = append(out[c], o)
			}
		}(c)
	}
	wg.Wait()
	return flatten(out), start
}

// closedLoop runs conns clients that each send their next request as soon
// as the previous one is answered, for the phase's duration.
func closedLoop(in phaseInput) ([]obs, time.Time) {
	lists := in.t.split(in.conns)
	out := make([][]obs, in.conns)
	start := time.Now()
	end := start.Add(in.duration)
	var wg sync.WaitGroup
	for c := 0; c < in.conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(in.url)
			defer cl.close()
			list := lists[c]
			if len(list) == 0 {
				return
			}
			first := in.firstIndex(list)
			for k := 0; ; k++ {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				at := first + k
				o, _ := in.send(cl, start, now, false, list[at%len(list)], at/len(list), int64(k*in.conns+c+1))
				out[c] = append(out[c], o)
			}
		}(c)
	}
	wg.Wait()
	return flatten(out), start
}

func flatten(parts [][]obs) []obs {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	all := make([]obs, 0, n)
	for _, p := range parts {
		all = append(all, p...)
	}
	return all
}

// generation is one published store as the validation pass sees it.
type generation struct {
	// swapStart and swapEnd bracket the SwapDataFor calls that made the
	// generation live (nanoseconds since the load phases' epoch): it may
	// have answered from swapStart on, and its predecessor must not
	// answer a request sent after swapEnd.
	swapStart, swapEnd int64
	texts              []uint64         // expected hash per traffic text
	canary             map[int32]uint64 // expected hash per canary id
}

// tally is the outcome of one load phase.
type tally struct {
	sent, ok, failed, wrong, refused, stale int
	cached, shared                          int
	followUps, resolved                     int
	latencies                               []timed // correct answers only, µs
	late                                    []float64
	service                                 []float64 // µs from sent to done
	elapsed                                 float64   // seconds
}

// judge compares every observation with the oracle. offset is the phase's
// start on the generations' clock. With no generations the static oracle
// decides; otherwise a response must match a generation that was live at
// some moment between its send and its receipt.
func judge(t *traffic, observations []obs, gens []generation, offset int64, duration time.Duration) tally {
	ty := tally{elapsed: duration.Seconds()}
	for i := range observations {
		o := &observations[i]
		ty.sent++
		if o.late >= 0 {
			ty.late = append(ty.late, float64(o.late)/1e3)
		}
		ty.service = append(ty.service, float64(o.done-o.sent)/1e3)
		switch {
		case o.failed:
			ty.failed++
			continue
		case o.rep.status == http.StatusServiceUnavailable:
			ty.refused++
			continue
		case o.rep.status != http.StatusOK:
			ty.failed++
			continue
		}
		if o.rep.stale {
			ty.stale++
			continue
		}
		if !matches(t, o, gens, offset) {
			ty.wrong++
			continue
		}
		ty.ok++
		if o.rep.cached {
			ty.cached++
		}
		if o.rep.shared {
			ty.shared++
		}
		if o.canary < 0 && t.expects[o.expect].followUp {
			ty.followUps++
			if o.rep.answered && o.rep.kind != "followup" {
				ty.resolved++
			}
		}
		ty.latencies = append(ty.latencies, timed{at: float64(o.due) / 1e9, lat: float64(o.done-o.from) / 1e3})
	}
	return ty
}

func matches(t *traffic, o *obs, gens []generation, offset int64) bool {
	if len(gens) == 0 {
		return o.rep.hash == t.expects[o.expect].hash
	}
	sent, done := o.sent+offset, o.done+offset
	for g := range gens {
		if gens[g].swapStart > done {
			break
		}
		if g+1 < len(gens) && gens[g+1].swapEnd < sent {
			continue
		}
		want, ok := gens[g].texts[o.expect], true
		if o.canary >= 0 {
			want, ok = gens[g].canary[o.canary]
		}
		if ok && want == o.rep.hash {
			return true
		}
	}
	return false
}

// add folds another slice of the same phase into ty; the other slice's
// latencies are placed after the ones already there.
func (ty *tally) add(o tally) {
	ty.sent += o.sent
	ty.ok += o.ok
	ty.failed += o.failed
	ty.wrong += o.wrong
	ty.refused += o.refused
	ty.stale += o.stale
	ty.cached += o.cached
	ty.shared += o.shared
	ty.followUps += o.followUps
	ty.resolved += o.resolved
	for _, s := range o.latencies {
		ty.latencies = append(ty.latencies, timed{at: s.at + ty.elapsed, lat: s.lat})
	}
	ty.late = append(ty.late, o.late...)
	ty.service = append(ty.service, o.service...)
	ty.elapsed += o.elapsed
}

// bad is the number of requests that count against failed_share.
func (ty *tally) bad() int { return ty.failed + ty.wrong + ty.refused + ty.stale }

// p returns the nearest-rank q-quantile of vals.
func p(vals []float64, q float64) float64 {
	s := sortedCopy(vals)
	return percentile(s, q)
}

func (ty *tally) latencyValues() []float64 {
	v := make([]float64, len(ty.latencies))
	for i, s := range ty.latencies {
		v[i] = s.lat
	}
	sort.Float64s(v)
	return v
}
