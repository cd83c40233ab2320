package httpserve

// The HTTP plumbing the node (Server) and the cluster Router share, so
// both tiers speak one wire shape: the error body, the retry hint on
// 503, the status an error maps to, the method guard, and the
// listen-until-cancelled loop of the daemons.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"cicero/internal/serve"
)

// errorResponse is the uniform error body.
type errorResponse struct {
	Error string `json:"error"`
}

// WriteJSON writes v as the JSON response body under the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// WriteError writes the uniform {"error": msg} body; a 503 tells the
// client when to come back.
func WriteError(w http.ResponseWriter, status int, msg string) {
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	WriteJSON(w, status, errorResponse{Error: msg})
}

// StatusFor maps serving errors to HTTP statuses.
func StatusFor(err error) int {
	switch {
	case errors.Is(err, serve.ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client went away or ran out of patience mid-queue.
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// WriteBodyError reports a request body that could not be read or
// decoded: 413 when it overran its http.MaxBytesReader bound, 400
// otherwise.
func WriteBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, fmt.Sprintf("bad request body: %v", err))
}

// AllowMethod reports whether the request uses the route's one method;
// if not it has answered 405 with the Allow header.
func AllowMethod(w http.ResponseWriter, r *http.Request, method string) bool {
	if r.Method == method {
		return true
	}
	w.Header().Set("Allow", method)
	WriteError(w, http.StatusMethodNotAllowed, method+" only")
	return false
}

// ListenAndServe runs srv until ctx is cancelled, then shuts it down
// gracefully, draining in-flight requests for up to five seconds. It
// always returns a non-nil error: the listen failure if srv stopped on
// its own (ctx is then still live), otherwise http.ErrServerClosed
// after a clean shutdown or the drain's error.
func ListenAndServe(ctx context.Context, srv *http.Server) error {
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	return <-errc
}
