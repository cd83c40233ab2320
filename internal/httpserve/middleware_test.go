package httpserve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cicero/internal/engine"
	"cicero/internal/serve"
)

// panicBackend blows up on every answer — the regression fixture for
// the recovery middleware.
type panicBackend struct{}

func (panicBackend) Answer(text string) serve.Answer { panic("kaboom: " + text) }
func (panicBackend) Store() engine.StoreView         { return engine.NewStore() }

func (b panicBackend) StoreGen() (engine.StoreView, uint64) { return b.Store(), 0 }

func TestRecoverMiddlewareContainsHandlerPanic(t *testing.T) {
	// Two more panics per path than there are admission slots: a path
	// that leaked its slot on a panic would shed the last two with 503.
	const maxInFlight, perBody = 2, 4
	s := NewWithBackend(panicBackend{}, Options{CacheEntries: -1,
		MaxInFlight: maxInFlight, QueueTimeout: 20 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bodies := []string{
		`{"text":"trigger"}`,
		// panicBackend has no dialogue support: the stateless session path.
		`{"text":"trigger","session":"s"}`,
	}
	for _, body := range bodies {
		for i := 0; i < perBody; i++ {
			resp, err := ts.Client().Post(ts.URL+"/v1/answer", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s request %d: the panic escaped the middleware: %v", body, i, err)
			}
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("%s request %d: status %d, want 500", body, i, resp.StatusCode)
			}
			resp.Body.Close()
		}
	}
	const want = perBody * 2
	if got := s.Stats().Panics; got != want {
		t.Fatalf("stats panics_total = %d, want %d", got, want)
	}
	if got := s.Stats().Admission.InFlight; got != 0 {
		t.Fatalf("admission.in_flight = %d after the panics, want 0: a slot leaked", got)
	}

	// The server still serves non-panicking routes afterwards.
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after panics: status %d", resp.StatusCode)
	}
}

func TestRecoverMiddlewareReraisesAbortHandler(t *testing.T) {
	s := NewWithBackend(panicBackend{}, Options{})
	h := s.recoverMiddleware(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic(http.ErrAbortHandler)
	}))
	defer func() {
		if recover() != http.ErrAbortHandler {
			t.Fatal("ErrAbortHandler was swallowed instead of re-raised")
		}
		if got := s.Stats().Panics; got != 0 {
			t.Fatalf("ErrAbortHandler counted as a panic: %d", got)
		}
	}()
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
}

func TestWithRequestTimeoutAppliesDeadline(t *testing.T) {
	seen := make(chan error, 1)
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			seen <- nil
			return
		}
		<-r.Context().Done()
		seen <- r.Context().Err()
	})
	h := WithRequestTimeout(inner, 10*time.Millisecond)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	select {
	case err := <-seen:
		if err != context.DeadlineExceeded {
			t.Fatalf("handler saw %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("handler never observed the deadline")
	}

	// Non-positive timeout must leave requests deadline-free.
	h = WithRequestTimeout(inner, 0)
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
	if err := <-seen; err != nil {
		t.Fatalf("zero timeout still imposed a deadline: %v", err)
	}
}
