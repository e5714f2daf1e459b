// Package wire is the driver protocol — what an experiment driver and the
// platform send each other to lease a task and report its measurement —
// defined once, for both sides. Each form has an appender, which writes
// exactly the bytes encoding/json writes for it (json.Marshal for the
// driver's bodies, a json.Encoder with its trailing newline for the
// server's answers), and a scanner, built of jsonenc.Scanner's steps, which
// reads exactly what the appender writes and reports ok == false for
// anything else. A caller whose scanner says no decodes the text with
// encoding/json as before: the scanner is a fast path that never changes
// what a body means, and encoding/json stays the fallback and the tests'
// oracle.
//
// The forms, by route:
//
//	POST /api/task/request   LeaseRequest → one Task, or {"tasks":[Task…]} when Max > 1
//	POST /api/task/complete  {"key","tasks":[Report…]} → {"results":[CompletionResult…]}
//
// The single-task completion body ({"key","task_id",…}, answered by the
// result row) is still served, through encoding/json: no driver sends it.
package wire

import (
	"encoding/json"
	"slices"
	"strconv"
	"time"

	"sqalpel/internal/jsonenc"
	"sqalpel/internal/repository"
	"sqalpel/internal/trace"
)

// LeaseRequest is the body of POST /api/task/request.
type LeaseRequest struct {
	Key          string `json:"key"`
	ExperimentID int    `json:"experiment_id"`
	DBMS         string `json:"dbms"`
	Platform     string `json:"platform"`
	// Max switches to batch leasing: with max > 1 up to that many tasks
	// are leased in one round trip and answered as {"tasks": [...]}.
	// Absent or 1 keeps the original single-task wire format, which a
	// driver asks for by leaving Max 0: the field is then not sent.
	Max int `json:"max"`
}

// AppendLeaseRequest appends r as the driver sends it: what json.Marshal
// writes for the map of its fields, keys sorted, max left out when 0.
func AppendLeaseRequest(dst []byte, r *LeaseRequest) []byte {
	dst = append(dst, `{"dbms":`...)
	dst = jsonenc.AppendString(dst, r.DBMS)
	dst = append(dst, `,"experiment_id":`...)
	dst = appendInt(dst, r.ExperimentID)
	dst = append(dst, `,"key":`...)
	dst = jsonenc.AppendString(dst, r.Key)
	if r.Max != 0 {
		dst = append(dst, `,"max":`...)
		dst = appendInt(dst, r.Max)
	}
	dst = append(dst, `,"platform":`...)
	dst = jsonenc.AppendString(dst, r.Platform)
	return append(dst, '}')
}

// ScanLeaseRequest reads what AppendLeaseRequest writes into r.
func ScanLeaseRequest(data []byte, r *LeaseRequest) (ok bool) {
	s := jsonenc.NewScanner(data)
	s.Lit(`{"dbms":`)
	dbms := s.Str()
	s.Lit(`,"experiment_id":`)
	exp := int(s.Int(strconv.IntSize))
	s.Lit(`,"key":`)
	key := s.Str()
	max := 0
	if s.Opt(`,"max":`) {
		if max = int(s.Int(strconv.IntSize)); max == 0 {
			return false
		}
	}
	s.Lit(`,"platform":`)
	platform := s.Str()
	s.Lit("}")
	if !s.Done() {
		return false
	}
	*r = LeaseRequest{Key: key, ExperimentID: exp, DBMS: dbms, Platform: platform, Max: max}
	return true
}

// AppendLease appends the answer to a lease, as a json.Encoder writes it:
// the one task, or {"tasks":[…]} when the request asked for a batch. ok is
// false when a task holds a time encoding/json cannot write; the caller
// then encodes the answer with encoding/json, which fails the same way.
func AppendLease(dst []byte, tasks []*repository.Task, batch bool) (out []byte, ok bool) {
	if !batch {
		dst, ok = appendTask(dst, tasks[0])
		return append(dst, '\n'), ok
	}
	dst = append(dst, `{"tasks":[`...)
	for i, t := range tasks {
		if i > 0 {
			dst = append(dst, ',')
		}
		if dst, ok = appendTask(dst, t); !ok {
			return dst, false
		}
	}
	return append(dst, "]}\n"...), true
}

// appendTask appends t as encoding/json writes a repository.Task.
func appendTask(dst []byte, t *repository.Task) (out []byte, ok bool) {
	dst = append(dst, `{"id":`...)
	dst = appendInt(dst, t.ID)
	dst = append(dst, `,"project_id":`...)
	dst = appendInt(dst, t.ProjectID)
	dst = append(dst, `,"experiment_id":`...)
	dst = appendInt(dst, t.ExperimentID)
	dst = append(dst, `,"query_id":`...)
	dst = appendInt(dst, t.QueryID)
	dst = append(dst, `,"sql":`...)
	dst = jsonenc.AppendString(dst, t.SQL)
	dst = append(dst, `,"contributor_key":`...)
	dst = jsonenc.AppendString(dst, t.ContributorKey)
	dst = append(dst, `,"dbms_key":`...)
	dst = jsonenc.AppendString(dst, t.DBMSKey)
	dst = append(dst, `,"platform_key":`...)
	dst = jsonenc.AppendString(dst, t.PlatformKey)
	dst = append(dst, `,"status":`...)
	dst = jsonenc.AppendString(dst, string(t.Status))
	ok = true
	for _, f := range [...]struct {
		key string
		t   time.Time
	}{{`,"assigned":`, t.Assigned}, {`,"deadline":`, t.Deadline}, {`,"finished":`, t.Finished}} {
		dst = append(dst, f.key...)
		var fine bool
		dst, fine = appendTime(dst, f.t)
		ok = ok && fine
	}
	return append(dst, '}'), ok
}

// ScanLease reads the answer to a lease as AppendLease writes it: a batch
// of tasks when batch is set, one task otherwise.
func ScanLease(data []byte, batch bool) (tasks []*repository.Task, ok bool) {
	s := jsonenc.NewScanner(data)
	if !batch {
		t := scanTask(&s)
		s.Lit("\n")
		return []*repository.Task{t}, s.Done()
	}
	s.Lit(`{"tasks":[`)
	for s.OK() && (len(tasks) == 0 || s.Opt(",")) {
		tasks = append(tasks, scanTask(&s))
	}
	s.Lit("]}\n")
	return tasks, s.Done()
}

// scanTask reads a task as appendTask writes it.
func scanTask(s *jsonenc.Scanner) *repository.Task {
	t := new(repository.Task)
	s.Lit(`{"id":`)
	t.ID = int(s.Int(strconv.IntSize))
	s.Lit(`,"project_id":`)
	t.ProjectID = int(s.Int(strconv.IntSize))
	s.Lit(`,"experiment_id":`)
	t.ExperimentID = int(s.Int(strconv.IntSize))
	s.Lit(`,"query_id":`)
	t.QueryID = int(s.Int(strconv.IntSize))
	s.Lit(`,"sql":`)
	t.SQL = s.Str()
	s.Lit(`,"contributor_key":`)
	t.ContributorKey = s.Str()
	s.Lit(`,"dbms_key":`)
	t.DBMSKey = s.Str()
	s.Lit(`,"platform_key":`)
	t.PlatformKey = s.Str()
	s.Lit(`,"status":`)
	t.Status = repository.TaskStatus(s.Str())
	s.Lit(`,"assigned":`)
	t.Assigned = scanTime(s)
	s.Lit(`,"deadline":`)
	t.Deadline = scanTime(s)
	s.Lit(`,"finished":`)
	t.Finished = scanTime(s)
	s.Lit("}")
	return t
}

// Report is one measured task as a driver reports it, one element of the
// tasks of POST /api/task/complete.
type Report struct {
	TaskID  int
	Seconds []float64
	Error   string
	Extra   map[string]string
	// Trace is the span tree as the target wrote it (metrics.Measurement's
	// Trace); nil leaves the field out.
	Trace []byte
}

// AppendReports appends the batch form of a completion body for the
// contributor key: what json.Marshal writes for {"key", "tasks"} with the
// reports as elements. A report's trace is written as json.Marshal writes
// the span tree its bytes decode to. For bytes trace.ScanCanonical takes —
// every engine's — that is the bytes with <, > and & escaped, and nothing
// is decoded; other bytes are decoded and encoded again, and bytes that do
// not decode are left out, as the driver always left them out.
func AppendReports(dst []byte, key string, reports []Report) ([]byte, error) {
	dst = append(dst, `{"key":`...)
	dst = jsonenc.AppendString(dst, key)
	dst = append(dst, `,"tasks":[`...)
	var keys []string
	for i := range reports {
		r := &reports[i]
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"task_id":`...)
		dst = appendInt(dst, r.TaskID)
		if r.Seconds == nil {
			dst = append(dst, `,"seconds":null`...)
		} else {
			dst = append(dst, `,"seconds":[`...)
			for j, sec := range r.Seconds {
				if j > 0 {
					dst = append(dst, ',')
				}
				var ok bool
				if dst, ok = jsonenc.AppendFloat(dst, sec); !ok {
					_, err := json.Marshal(sec) // the error json.Marshal fails with
					return dst, err
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, `,"error":`...)
		dst = jsonenc.AppendString(dst, r.Error)
		dst = append(dst, `,"extra":`...)
		if r.Extra == nil {
			dst = append(dst, "null"...)
		} else {
			keys = keys[:0]
			for k := range r.Extra {
				keys = append(keys, k)
			}
			slices.Sort(keys)
			dst = append(dst, '{')
			for j, k := range keys {
				if j > 0 {
					dst = append(dst, ',')
				}
				dst = jsonenc.AppendString(dst, k)
				dst = append(dst, ':')
				dst = jsonenc.AppendString(dst, r.Extra[k])
			}
			dst = append(dst, '}')
		}
		if len(r.Trace) > 0 {
			dst = appendTrace(dst, r.Trace)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}"...), nil
}

// appendTrace appends the trace field of a report.
func appendTrace(dst, raw []byte) []byte {
	if trace.ScanCanonical(raw, nil) {
		dst = append(dst, `,"trace":`...)
		return jsonenc.AppendHTMLSafe(dst, raw)
	}
	qt, err := trace.ParseTrace(raw)
	if err != nil {
		return dst
	}
	b, _ := qt.JSON() // never fails
	dst = append(dst, `,"trace":`...)
	return append(dst, b...)
}

// Completion is one finished task as the server reads it: the whole body
// of the single-task form of /api/task/complete, one element of the batch
// form's tasks.
type Completion struct {
	TaskID  int       `json:"task_id"`
	Seconds []float64 `json:"seconds"`
	Error   string    `json:"error"`
	// Extra is nil only when the body sent no object: {} holds no extras,
	// yet a batch body that sends it at the top level mixes the two forms.
	Extra *repository.Extras `json:"extra"`
	// Trace optionally carries the driver's per-operator span tree as a
	// trace.QueryTrace document; it is stored on the result row. A trace
	// that does not decode fails the whole body.
	Trace repository.TraceJSON `json:"trace"`
}

// Record returns the completion as the store records it.
func (c *Completion) Record() repository.Completion {
	r := repository.Completion{TaskID: c.TaskID, Seconds: c.Seconds, Error: c.Error, Trace: c.Trace}
	if c.Extra != nil {
		r.Extra = *c.Extra
	}
	return r
}

// CompletionRequest is the body of POST /api/task/complete in either form.
type CompletionRequest struct {
	Key string `json:"key"`
	Completion
	// Tasks switches to the batch form: the tasks of a lease reported in
	// one round trip, recorded as one batch and answered with
	// {"results": [...]}, one status per task. Absent keeps the
	// single-task wire format.
	Tasks []Completion `json:"tasks"`
}

// ScanCompletions reads a batch body as AppendReports writes it into req.
// A completion's extras and span tree are read by repository.Extras' and
// repository.TraceJSON's UnmarshalJSON over the object's text, as
// encoding/json reads them, so the store keeps the same bytes.
func ScanCompletions(data []byte, req *CompletionRequest) (ok bool) {
	s := jsonenc.NewScanner(data)
	s.Lit(`{"key":`)
	key := s.Str()
	s.Lit(`,"tasks":[`)
	tasks := []Completion{}
	for s.OK() && !s.Opt("]}") {
		if len(tasks) > 0 {
			s.Lit(",")
		}
		var c Completion
		s.Lit(`{"task_id":`)
		c.TaskID = int(s.Int(strconv.IntSize))
		s.Lit(`,"seconds":`)
		if !s.Opt("null") {
			s.Lit("[")
			c.Seconds = []float64{}
			for s.OK() && !s.Opt("]") {
				if len(c.Seconds) > 0 {
					s.Lit(",")
				}
				c.Seconds = append(c.Seconds, s.Float())
			}
		}
		s.Lit(`,"error":`)
		c.Error = s.Str()
		s.Lit(`,"extra":`)
		if !s.Opt("null") {
			c.Extra = new(repository.Extras)
			if obj := s.Object(); s.OK() && c.Extra.UnmarshalJSON(obj) != nil {
				return false
			}
		}
		if s.Opt(`,"trace":`) {
			if obj := s.Object(); s.OK() && c.Trace.UnmarshalJSON(obj) != nil {
				return false
			}
		}
		s.Lit("}")
		tasks = append(tasks, c)
	}
	if !s.Done() {
		return false
	}
	*req = CompletionRequest{Key: key, Tasks: tasks}
	return true
}

// CompletionResult is the batch form's answer for one reported task.
type CompletionResult struct {
	TaskID int    `json:"task_id"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
}

// AppendCompletionResults appends the answer to a batch completion as a
// json.Encoder writes {"results": results}.
func AppendCompletionResults(dst []byte, results []CompletionResult) []byte {
	if results == nil {
		return append(dst, `{"results":null}`+"\n"...)
	}
	dst = append(dst, `{"results":[`...)
	for i, r := range results {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"task_id":`...)
		dst = appendInt(dst, r.TaskID)
		dst = append(dst, `,"status":`...)
		dst = appendInt(dst, r.Status)
		if r.Error != "" {
			dst = append(dst, `,"error":`...)
			dst = jsonenc.AppendString(dst, r.Error)
		}
		dst = append(dst, '}')
	}
	return append(dst, "]}\n"...)
}

// ScanCompletionResults reads what AppendCompletionResults writes.
func ScanCompletionResults(data []byte) (results []CompletionResult, ok bool) {
	s := jsonenc.NewScanner(data)
	if s.Opt(`{"results":null}` + "\n") {
		return nil, s.Done()
	}
	s.Lit(`{"results":[`)
	results = []CompletionResult{}
	for s.OK() && !s.Opt("]}\n") {
		if len(results) > 0 {
			s.Lit(",")
		}
		var r CompletionResult
		s.Lit(`{"task_id":`)
		r.TaskID = int(s.Int(strconv.IntSize))
		s.Lit(`,"status":`)
		r.Status = int(s.Int(strconv.IntSize))
		if s.Opt(`,"error":`) {
			if r.Error = s.Str(); r.Error == "" {
				return nil, false
			}
		}
		s.Lit("}")
		results = append(results, r)
	}
	return results, s.Done()
}
