package server

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// brokenConn is a ResponseWriter whose connection is gone: every write
// fails. It records the statuses and the bytes it was asked to send.
type brokenConn struct {
	header   http.Header
	statuses []int
	sent     bytes.Buffer
}

func (b *brokenConn) Header() http.Header { return b.header }

func (b *brokenConn) WriteHeader(status int) { b.statuses = append(b.statuses, status) }

func (b *brokenConn) Write(p []byte) (int, error) {
	if len(b.statuses) == 0 {
		b.WriteHeader(http.StatusOK)
	}
	b.sent.Write(p)
	return 0, errors.New("connection reset by peer")
}

// TestResultsCSVWriteFailure: once the CSV export has begun its 200 answer,
// a failed write leaves nothing to answer — no second status, and no JSON
// error appended to the CSV body.
func TestResultsCSVWriteFailure(t *testing.T) {
	srv, pid, _ := lanesFixture(t)
	w := &brokenConn{header: http.Header{}}
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/projects/%d/results.csv", pid), nil))
	if len(w.statuses) != 1 || w.statuses[0] != http.StatusOK {
		t.Errorf("statuses %v, want one 200", w.statuses)
	}
	if bytes.Contains(w.sent.Bytes(), []byte(`"error"`)) {
		t.Errorf("a JSON error was written into the CSV body:\n%s", w.sent.Bytes())
	}
}
