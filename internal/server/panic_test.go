package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// halfway through a list answer: the client must not receive a complete
// answer — neither the 200 with an error appended nor a 500 — and the next
// request on the same server must succeed.
func TestHandlerPanicAfterAnswerBegunCutsIt(t *testing.T) {
	s := New(Options{})
	logged := make(chan string, 1)
	s.logf = func(format string, args ...any) { logged <- fmt.Sprintf(format, args...) }
	s.mux.HandleFunc("GET /api/halfway", func(w http.ResponseWriter, _ *http.Request) {
		writeJSONList(w, []panicky{{}, {boom: true}})
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

// panicky encodes as an object, or panics when boom is set.
type panicky struct{ boom bool }

func (p panicky) MarshalJSON() ([]byte, error) {
	if p.boom {
		panic("boom")
	}
	return []byte(`{}`), nil
}

// TestWriteJSONListMatchesWriteJSON pins that streaming a list changes
// nothing a client decodes: a nil list is null, byte for byte, and any
// other list the same array writeJSON gives.
func TestWriteJSONListMatchesWriteJSON(t *testing.T) {
	for _, list := range [][]map[string]int{nil, {}, {{"a": 1}, {"b": 2}}} {
		whole, streamed := httptest.NewRecorder(), httptest.NewRecorder()
		writeJSON(whole, http.StatusOK, list)
		writeJSONList(streamed, list)
		if streamed.Code != http.StatusOK || streamed.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("%v: answered %d, %q", list, streamed.Code, streamed.Header().Get("Content-Type"))
		}
		var want, got any
		if err := json.Unmarshal(whole.Body.Bytes(), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(streamed.Body.Bytes(), &got); err != nil {
			t.Fatalf("%v: %v in %q", list, err, streamed.Body.String())
		}
		if !reflect.DeepEqual(got, want) || (list == nil && streamed.Body.String() != whole.Body.String()) {
			t.Fatalf("%v: streamed %q, whole %q", list, streamed.Body.String(), whole.Body.String())
		}
	}
}
