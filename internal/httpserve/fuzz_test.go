package httpserve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"cicero/internal/serve"
)

// decodeStrict decodes exactly one JSON value of v's shape, rejecting
// unknown fields.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// FuzzAnswerBody posts arbitrary bytes to the answer route. Every reply
// is either a 200 carrying an AnswerResponse or a 400/413 carrying the
// uniform error body, and no request panics the handler. A 200 answers
// only a body json.Unmarshal takes for one AnswerRequest, as the router
// decodes it.
func FuzzAnswerBody(f *testing.F) {
	fl, _ := newFlightsAnswerer(f, "cancellation probability")
	reg := serve.NewRegistry()
	if err := reg.Add("flights", fl); err != nil {
		f.Fatal(err)
	}
	s := NewMulti(reg, "flights", Options{})
	h := s.Handler()

	for _, seed := range []string{
		`{"text": "cancellations in Winter"}`,
		`{"text": "which airline has the fewest cancellations", "session": "alice"}`,
		`{"text": "what about UA", "session": "alice"}`,
		`{"texts": ["help", "cancellations on UA"]}`,
		`{"text": "help", "texts": ["help"]}`,
		`{"session": "alice"}`,
		`{}`,
		`null`,
		`[]`,
		`{"text": `,
		`{"text": 7}`,
		`{"text": "help"} garbage`,
		`{"text": "help"}{"texts": ["a"]}`,
		"{\"text\": \"help\"}\n",
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/flights/answer", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
			var resp AnswerResponse
			if err := decodeStrict(rec.Body.Bytes(), &resp); err != nil || resp.Text == "" {
				t.Fatalf("200 without an answer (%v): %s", err, rec.Body)
			}
			var req AnswerRequest
			if err := json.Unmarshal(body, &req); err != nil {
				t.Fatalf("200 for body %q, which json.Unmarshal rejects: %v", body, err)
			}
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			var resp errorResponse
			if err := decodeStrict(rec.Body.Bytes(), &resp); err != nil || resp.Error == "" {
				t.Fatalf("%d without the error body (%v): %s", rec.Code, err, rec.Body)
			}
		default:
			t.Fatalf("status %d for body %q: %s", rec.Code, body, rec.Body)
		}
		if n := s.Stats().Panics; n != 0 {
			t.Fatalf("%d handler panics", n)
		}
	})
}
