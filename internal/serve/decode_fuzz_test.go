package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"stpq"
)

// FuzzDecodeQuery feeds arbitrary bytes as a POST /query body through
// DecodeQuery, the one decoder every /query (a replica's and the
// coordinator's) reads with, then through ValidateQuery, as Service.Do
// would. Every input must either be refused with a 4xx or lower to a
// query that validates or fails with ErrInvalidQuery, and nothing may
// panic.
func FuzzDecodeQuery(f *testing.F) {
	for _, seed := range []string{
		`{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"food":["pizza"],"cafes":["tea"]}}`,
		`{"k":5,"radius":1e999,"lambda":0.5,"keywords":{"food":["pizza"]}}`,
		`{"k":5,"radius":0.1,"lambda":-0,"keywords":{"food":["pizza"]}}`,
		`{"k":99999999999999999999,"radius":0.1,"lambda":0.5}`,
		`{"k":9223372036854775807,"radius":0.1,"lambda":0.5,"variant":"nn"}`,
		`{"k":5,"radius":0.1,"lambda":0.5,"mode":"approx","recall":0.9}`,
		`{"k":5,"radius":0.1,"lambda":0.5,"variant":"Range","algorithm":"auto","similarity":"cos"}`,
		`{"k":5,"radius":0.1,"lambda":0.5,"keywords":{"bars":["x"]},"trace":true,"explain":true}`,
		`{"k":5,"radius":0.1,"lambda":0.5}trailing`,
		`[1,2,3]`,
		``,
	} {
		f.Add([]byte(seed))
	}
	sets := []string{"food", "cafes"}
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		_, _, q, ok := DecodeQuery(rec, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if !ok {
			if rec.Code < 400 || rec.Code >= 500 {
				t.Fatalf("refused with status %d, want a 4xx: %s", rec.Code, rec.Body)
			}
			return
		}
		if rec.Code != http.StatusOK || q.RequestID == "" {
			t.Fatalf("accepted with status %d, request id %q", rec.Code, q.RequestID)
		}
		if err := stpq.ValidateQuery(q, sets); err != nil && !errors.Is(err, stpq.ErrInvalidQuery) {
			t.Fatalf("query %+v fails validation with %v, which is not ErrInvalidQuery", q, err)
		}
	})
}
