package httpserve

import (
	"context"
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
type sessionSlot = atomic.Pointer[serve.QueryContext]

// sessionKey scopes a session id to one dataset. The id is the client's
// opaque token and is keyed byte for byte: normalizing it like a
// request text would fold distinct dialogues into one (ids differing
// only in case, and every id with no ASCII letter or digit).
func sessionKey(dataset, session string) string {
	return dataset + "\x00" + session
}

// AnswerSession serves one request within a dialogue session: the text
// is classified against the session's previous query context, so
// follow-ups resolve, and the context advances when the answer is
// followable. The cache and singleflight are bypassed (answers are
// context-dependent); admission control is not, and since no other
// request shares the result, the wait for a slot ends when the client
// gives up.
func (s *Server) AnswerSession(ctx context.Context, dataset, session, text string) (Result, error) {
	start := time.Now()
	b, err := s.tenants.get(dataset)
	if err != nil {
		return Result{}, err
	}
	if err := s.gate.Acquire(ctx); err != nil {
		return Result{}, err
	}
	defer s.gate.Release()
	var ans serve.Answer
	if cb, ok := b.(contextBackend); ok {
		slot := s.sessions.GetOrCreate(sessionKey(dataset, session), func() *sessionSlot { return new(sessionSlot) })
		prev := slot.Load()
		var next *serve.QueryContext
		ans, next = cb.AnswerContext(text, prev)
		if next != prev {
			// Whole-pointer publish: a concurrent request on this session
			// observes either the old or the new context, never a mix.
			slot.Store(next)
		}
	} else {
		// No dialogue support on this backend: served statelessly.
		ans = b.Answer(text)
	}
	ans.Latency = time.Since(start)
	return Result{Answer: ans}, nil
}
