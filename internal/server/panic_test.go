package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerPanicAnswers500 registers a route whose handler panics: the
// server must answer it 500 with a JSON error and log the panic with the
// route, and the next request on the same server must succeed.
func TestHandlerPanicAnswers500(t *testing.T) {
	s := New(Options{})
	logged := make(chan string, 1)
	s.logf = func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	s.mux.HandleFunc("GET /api/boom/{id}", func(http.ResponseWriter, *http.Request) { panic("boom") })
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/boom/7")
	if err != nil {
		t.Fatalf("the panicking route dropped the connection: %v", err)
	}
	var body map[string]string
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError || err != nil || body["error"] == "" {
		t.Fatalf("the panicking route answered %d, %v, %v", resp.StatusCode, body, err)
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, "GET /api/boom/{id}") || !strings.Contains(line, "boom") {
			t.Fatalf("the panic is logged without its route or value: %s", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the panic was not logged")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the panic answered %d", resp.StatusCode)
	}
}

// TestHandlerPanicAfterAnswerBegunCutsIt registers a route that panics
// after writing part of its answer: the client must not receive a complete
// answer — neither the 200 with an error appended nor a 500 — and the next
// request on the same server must succeed.
func TestHandlerPanicAfterAnswerBegunCutsIt(t *testing.T) {
	s := New(Options{})
	logged := make(chan string, 1)
	s.logf = func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	s.mux.HandleFunc("GET /api/halfway", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write([]byte(`[{"id":1}` + "\n,"))
		panic("boom")
	})
	srv := httptest.NewServer(s)
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/halfway")
	if err == nil {
		var body []byte
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil {
			t.Fatalf("the route that panicked halfway answered %d, %q in full", resp.StatusCode, body)
		}
	}
	select {
	case line := <-logged:
		if !strings.Contains(line, "GET /api/halfway") {
			t.Fatalf("the panic is logged without its route: %s", line)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the panic was not logged")
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("the request after the panic answered %d", resp.StatusCode)
	}
}
