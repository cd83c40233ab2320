package httpserve

// HTTP middleware for the serving tier: panic containment (a bug in
// one handler must cost one 500, not the process) and per-request
// deadlines (a wedged handler must not pin a worker forever).

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"time"
)

// recoverMiddleware converts a handler panic into a JSON 500 and
// counts it, so a poisoned request cannot crash the daemon and the
// operator sees the rate in /v1/stats. http.ErrAbortHandler is the
// net/http idiom for "abort this response" and is re-raised untouched.
func (s *Server) recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.panics.Add(1)
			fmt.Fprintf(os.Stderr, "panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
			// Headers may already be out; in that case the connection is
			// poisoned anyway and this write is a no-op on a hijacked or
			// started response.
			WriteError(w, http.StatusInternalServerError, "internal error")
		}()
		next.ServeHTTP(w, r)
	})
}

// WithRequestTimeout bounds every request's handler work with a
// context deadline. Unlike http.TimeoutHandler it does not buffer the
// response; handlers observe ctx.Done() and map the cancellation to
// their own error shape (the answer path returns JSON with the
// request's partial status rather than a bare text body).
func WithRequestTimeout(next http.Handler, d time.Duration) http.Handler {
	if d <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
