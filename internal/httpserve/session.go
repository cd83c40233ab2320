package httpserve

import (
	"container/list"
	"context"
	"sync"
	"sync/atomic"
	"time"

	"cicero/internal/serve"
)

// Dialogue sessions over HTTP: a request carrying a "session" field is
// answered against that session's conversational context, so elliptical
// follow-ups ("what about Texas") resolve across stateless HTTP calls.
//
// Session requests bypass the answer cache and singleflight on purpose:
// the answer depends on the session's previous query, so two sessions
// asking the same text legitimately get different answers, and a cached
// one would leak context across users. Admission control still applies
// — dialogue traffic competes for the same kernel slots as everything
// else.

// contextBackend is the optional Backend extension dialogue routing
// rides on (*serve.Answerer implements it). Backends without it serve
// session requests statelessly — follow-ups then get the apology.
type contextBackend interface {
	AnswerContext(text string, prev *serve.QueryContext) (serve.Answer, *serve.QueryContext)
}

// sessionSlot holds one dialogue's context behind an atomic pointer:
// concurrent requests on the same session each observe one coherent
// snapshot (serve.QueryContext is immutable), and the last writer wins
// — the same semantics as serve.Session.
type sessionSlot struct {
	ctx atomic.Pointer[serve.QueryContext]
	// touched is the wall-clock of the last request, for observability.
	touched atomic.Int64
}

// sessionTable is a bounded LRU of dialogue slots keyed by
// (dataset, session id). Session ids arrive from untrusted request
// bodies, so the table must not grow with the id space: the least
// recently used dialogue is dropped at capacity, and its next
// follow-up simply fails to resolve.
type sessionTable struct {
	mu    sync.Mutex
	max   int
	slots map[string]*list.Element
	order *list.List // front = most recently used
}

type sessionEntry struct {
	key  string
	slot *sessionSlot
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{
		max:   max,
		slots: make(map[string]*list.Element),
		order: list.New(),
	}
}

// slot returns the dialogue slot for key, creating it (and evicting the
// least recently used dialogue at capacity) if needed.
func (t *sessionTable) slot(key string) *sessionSlot {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.slots[key]; ok {
		t.order.MoveToFront(el)
		return el.Value.(*sessionEntry).slot
	}
	for t.order.Len() >= t.max {
		last := t.order.Back()
		t.order.Remove(last)
		delete(t.slots, last.Value.(*sessionEntry).key)
	}
	entry := &sessionEntry{key: key, slot: &sessionSlot{}}
	t.slots[key] = t.order.PushFront(entry)
	return entry.slot
}

// len returns the number of live dialogues.
func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.order.Len()
}

// purgeDataset drops every dialogue of one dataset (used when a tenant
// is torn down; a publish deliberately keeps dialogues alive — the
// context owns its strings and outlives store generations).
func (t *sessionTable) purgeDataset(dataset string) {
	prefix := dataset + "\x00"
	t.mu.Lock()
	defer t.mu.Unlock()
	var next *list.Element
	for el := t.order.Front(); el != nil; el = next {
		next = el.Next()
		entry := el.Value.(*sessionEntry)
		if len(entry.key) > len(prefix) && entry.key[:len(prefix)] == prefix {
			t.order.Remove(el)
			delete(t.slots, entry.key)
		}
	}
}

// AnswerSession serves one request within a dialogue session: the text
// is classified against the session's previous query context, so
// follow-ups resolve, and the context advances when the answer is
// followable. The cache and singleflight are bypassed (answers are
// context-dependent); admission control is not.
func (s *Server) AnswerSession(ctx context.Context, dataset, session, text string) (Result, error) {
	start := time.Now()
	b, err := s.tenants.get(ctx, dataset)
	if err != nil {
		return Result{}, err
	}
	cb, ok := b.(contextBackend)
	if !ok || s.sessions == nil {
		// No dialogue support on this backend (or sessions disabled):
		// serve statelessly under admission control.
		if err := s.acquire(); err != nil {
			return Result{}, err
		}
		defer func() { <-s.sem }()
		ans := b.Answer(text)
		ans.Latency = time.Since(start)
		return Result{Answer: ans}, nil
	}
	slot := s.sessions.slot(tenantKey(dataset, session))
	if err := s.acquire(); err != nil {
		return Result{}, err
	}
	defer func() { <-s.sem }()
	prev := slot.ctx.Load()
	ans, next := cb.AnswerContext(text, prev)
	if next != prev {
		// Whole-pointer publish: a concurrent request on this session
		// observes either the old or the new context, never a mix.
		slot.ctx.Store(next)
	}
	slot.touched.Store(time.Now().UnixNano())
	ans.Latency = time.Since(start)
	return Result{Answer: ans}, nil
}

// Sessions reports the number of live dialogue sessions.
func (s *Server) Sessions() int {
	if s.sessions == nil {
		return 0
	}
	return s.sessions.len()
}
