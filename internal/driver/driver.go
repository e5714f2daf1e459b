// Package driver is the Go counterpart of the paper's sqalpel.py experiment
// driver: a small client that is locally controlled through a configuration
// file, asks the platform web server for tasks from a project's query pool,
// executes them against the locally available DBMS (five repetitions by
// default), and reports the wall-clock times, the CPU load averages around
// the run and an open-ended key/value list of extra indicators back to the
// server. The contributor is identified only by a separately supplied key.
//
// With workers > 1 the driver leases tasks in batches (the `max` parameter
// of POST /api/task/request), measures them on a local worker pool and
// reports the batch back in one request (the `tasks` form of POST
// /api/task/complete), so a handful of drivers — possibly on different
// machines — can crowd-source one experiment concurrently; the server's
// per-lease deadlines guarantee that no query is measured twice and that
// the leases of a crashed driver are handed out again.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sqalpel/internal/metrics"
	"sqalpel/internal/repository"
	"sqalpel/internal/wire"
)

// Config is the locally controlled driver configuration.
type Config struct {
	// Server is the base URL of the sqalpel platform.
	Server string
	// Key is the contributor key identifying the source of the results
	// without disclosing the contributor's identity.
	Key string
	// DBMS and Platform are the catalog keys of the system and host used.
	DBMS     string
	Platform string
	// Experiment is the experiment id within the contributor's project.
	Experiment int
	// Runs is the number of repetitions per query (default 5).
	Runs int
	// Timeout bounds a single query execution.
	Timeout time.Duration
	// Workers is the number of concurrent measurement workers (default 1 =
	// serial). With more than one worker the target must be safe for
	// concurrent use, which the built-in engines are.
	Workers int
	// Batch is how many tasks to lease per request; zero defaults to the
	// worker count so a full batch keeps every worker busy. A serial driver
	// (one worker) always leases one task at a time.
	Batch int
	// Trace asks the target for per-operator traces (targets that support
	// toggling expose SetTrace, e.g. the built-in engine targets) and
	// forwards them to the server with each result.
	Trace bool
}

// maxTimeoutSeconds is the largest timeout_seconds whose doubled duration,
// the HTTP client's timeout, still fits a time.Duration.
const maxTimeoutSeconds = math.MaxInt64 / (2 * int64(time.Second))

// ParseConfig parses the driver configuration format: one `key = value` pair
// per line, with '#' comments, mirroring the paper's description of a simple
// local configuration file.
func ParseConfig(text string) (Config, error) {
	cfg := Config{Runs: metrics.DefaultRuns, Timeout: time.Minute, Workers: 1}
	for lineNo, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		eq := strings.Index(line, "=")
		if eq < 0 {
			return cfg, fmt.Errorf("line %d: expected key = value, got %q", lineNo+1, line)
		}
		key := strings.TrimSpace(line[:eq])
		val := strings.TrimSpace(line[eq+1:])
		switch strings.ToLower(key) {
		case "server":
			cfg.Server = val
		case "key":
			cfg.Key = val
		case "dbms":
			cfg.DBMS = val
		case "platform", "host":
			cfg.Platform = val
		case "experiment":
			n, err := strconv.Atoi(val)
			if err != nil {
				return cfg, fmt.Errorf("line %d: experiment must be a number", lineNo+1)
			}
			cfg.Experiment = n
		case "runs":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("line %d: runs must be a positive number", lineNo+1)
			}
			cfg.Runs = n
		case "timeout_seconds":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 || int64(n) > maxTimeoutSeconds {
				return cfg, fmt.Errorf("line %d: timeout_seconds must be a positive number up to %d", lineNo+1, maxTimeoutSeconds)
			}
			cfg.Timeout = time.Duration(n) * time.Second
		case "workers":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("line %d: workers must be a positive number", lineNo+1)
			}
			cfg.Workers = n
		case "batch":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return cfg, fmt.Errorf("line %d: batch must be a positive number", lineNo+1)
			}
			cfg.Batch = n
		case "trace":
			b, err := strconv.ParseBool(val)
			if err != nil {
				return cfg, fmt.Errorf("line %d: trace must be a boolean", lineNo+1)
			}
			cfg.Trace = b
		default:
			return cfg, fmt.Errorf("line %d: unknown configuration key %q", lineNo+1, key)
		}
	}
	return cfg, cfg.Validate()
}

// LoadConfig reads and parses a configuration file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	return ParseConfig(string(data))
}

// Validate checks that the mandatory fields are present.
func (c Config) Validate() error {
	switch {
	case c.Server == "":
		return fmt.Errorf("driver config: server is required")
	case c.Key == "":
		return fmt.Errorf("driver config: key is required")
	case c.DBMS == "":
		return fmt.Errorf("driver config: dbms is required")
	case c.Platform == "":
		return fmt.Errorf("driver config: platform is required")
	case c.Experiment <= 0:
		return fmt.Errorf("driver config: experiment is required")
	}
	return nil
}

// Client talks to the platform server.
type Client struct {
	cfg  Config
	http *http.Client
	// bodySize is the length of the longest completion body posted: the
	// capacity the next one starts with.
	bodySize atomic.Int64
}

// NewClient builds a client from a validated configuration.
func NewClient(cfg Config) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Client{cfg: cfg, http: &http.Client{Timeout: 2 * cfg.Timeout}}, nil
}

// answers hold the answers of the server while the driver reads them.
var answers = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// post sends the JSON body to path and returns the status of the answer and,
// for a status below 400 other than 204, its bytes, read into buf. A status
// of 400 or above is an error that carries the server's message.
func (c *Client) post(path string, body []byte, buf *bytes.Buffer) (int, []byte, error) {
	resp, err := c.http.Post(strings.TrimSuffix(c.cfg.Server, "/")+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	// The answer is read to EOF on every path: net/http only returns a
	// connection to the pool when its response was read to the end, so a
	// reply left unread would cost the next request a new TCP connection.
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return resp.StatusCode, nil, nil
	case resp.StatusCode >= 400:
		var apiErr struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(buf).Decode(&apiErr)
		return resp.StatusCode, nil, fmt.Errorf("server returned %d: %s", resp.StatusCode, apiErr.Error)
	case err != nil:
		return resp.StatusCode, nil, fmt.Errorf("decoding server response: %w", err)
	}
	return resp.StatusCode, buf.Bytes(), nil
}

// decodeAnswer is the reader of an answer wire's scanner does not take:
// encoding/json, into out.
func decodeAnswer(answer []byte, out any) error {
	if err := json.NewDecoder(bytes.NewReader(answer)).Decode(out); err != nil {
		return fmt.Errorf("decoding server response: %w", err)
	}
	return nil
}

// RequestTask asks the server for the next query to run. It returns nil when
// the pool is exhausted for this DBMS + platform combination.
func (c *Client) RequestTask() (*repository.Task, error) {
	tasks, err := c.lease(0)
	if len(tasks) == 0 {
		return nil, err
	}
	return tasks[0], err
}

// RequestTasks leases up to max tasks in one round trip. An empty slice
// means the pool is exhausted for this DBMS + platform combination.
func (c *Client) RequestTasks(max int) ([]*repository.Task, error) {
	if max <= 1 {
		task, err := c.RequestTask()
		if err != nil || task == nil {
			return nil, err
		}
		return []*repository.Task{task}, nil
	}
	return c.lease(max)
}

// lease asks for up to max tasks, as a batch when max > 1 and as the
// single-task form when max is 0.
func (c *Client) lease(max int) ([]*repository.Task, error) {
	req := wire.LeaseRequest{Key: c.cfg.Key, ExperimentID: c.cfg.Experiment, DBMS: c.cfg.DBMS, Platform: c.cfg.Platform, Max: max}
	buf := answers.Get().(*bytes.Buffer)
	defer answers.Put(buf)
	status, answer, err := c.post("/api/task/request", wire.AppendLeaseRequest(nil, &req), buf)
	if err != nil || status == http.StatusNoContent {
		return nil, err
	}
	batch := max > 1
	if tasks, ok := wire.ScanLease(answer, batch); ok {
		return tasks, nil
	}
	if batch {
		var resp struct {
			Tasks []*repository.Task `json:"tasks"`
		}
		err := decodeAnswer(answer, &resp)
		return resp.Tasks, err
	}
	var task repository.Task
	if err := decodeAnswer(answer, &task); err != nil {
		return nil, err
	}
	return []*repository.Task{&task}, nil
}

// Report sends a finished measurement back to the server. A lease lost in
// the meantime is an error here; the run loops skip it instead.
//
//lint:api the benchmark module's driver.report_ms probe
func (c *Client) Report(taskID int, m *metrics.Measurement) error {
	landed, err := c.report([]*repository.Task{{ID: taskID}}, []*metrics.Measurement{m})
	if err == nil && landed == 0 {
		return fmt.Errorf("task %d: server returned %d: lease lost", taskID, http.StatusConflict)
	}
	return err
}

// report sends the measurements of tasks back in one request, the batch
// form of POST /api/task/complete, and returns how many the server recorded
// (201). A task whose lease was lost in the meantime (409: expired and
// re-queued to another driver) is skipped — that is the designed recovery
// path, not a driver failure; the first other status is the error, returned
// beside the count of every task that did land.
func (c *Client) report(tasks []*repository.Task, ms []*metrics.Measurement) (int, error) {
	reports := make([]wire.Report, len(tasks))
	for i, task := range tasks {
		reports[i] = wire.Report{TaskID: task.ID, Seconds: ms[i].Seconds(), Error: ms[i].Err, Extra: ms[i].Extra, Trace: ms[i].Trace}
	}
	// A body is not reused: net/http may still read it after the answer.
	body, err := wire.AppendReports(make([]byte, 0, c.bodySize.Load()), c.cfg.Key, reports)
	if err != nil {
		return 0, err
	}
	if n := int64(len(body)); n > c.bodySize.Load() {
		c.bodySize.Store(n)
	}
	buf := answers.Get().(*bytes.Buffer)
	defer answers.Put(buf)
	status, answer, err := c.post("/api/task/complete", body, buf)
	if err != nil {
		return 0, err
	}
	results, ok := wire.ScanCompletionResults(answer)
	if !ok && status != http.StatusNoContent {
		var resp struct {
			Results []wire.CompletionResult `json:"results"`
		}
		if err := decodeAnswer(answer, &resp); err != nil {
			return 0, err
		}
		results = resp.Results
	}
	if len(results) != len(tasks) {
		return 0, fmt.Errorf("server answered %d of %d completions", len(results), len(tasks))
	}
	landed := 0
	var first error
	for _, r := range results {
		switch {
		case r.Status == http.StatusCreated:
			landed++
		case r.Status != http.StatusConflict && first == nil:
			first = fmt.Errorf("task %d: server returned %d: %s", r.TaskID, r.Status, r.Error)
		}
	}
	return landed, first
}

// enableTrace switches per-operator tracing on for targets that support
// toggling it; targets without the hook are measured untraced.
func (c *Client) enableTrace(target metrics.Target) {
	if !c.cfg.Trace {
		return
	}
	if t, ok := target.(interface{ SetTrace(bool) }); ok {
		t.SetTrace(true)
	}
}

// measure runs one task's query on the target with the configured
// repetitions and per-repetition timeout.
func (c *Client) measure(target metrics.Target, task *repository.Task) *metrics.Measurement {
	return metrics.Measure(target, task.SQL, metrics.Options{Runs: c.cfg.Runs, Timeout: c.cfg.Timeout})
}

// measureAll measures the tasks on up to workers concurrent workers and
// returns their measurements in task order.
func (c *Client) measureAll(target metrics.Target, tasks []*repository.Task, workers int) []*metrics.Measurement {
	out := make([]*metrics.Measurement, len(tasks))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(tasks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(tasks); i = int(next.Add(1)) - 1 {
				out[i] = c.measure(target, tasks[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// RunAll keeps requesting and measuring tasks until the pool is exhausted or
// maxTasks have been processed (0 means no limit). It returns the number of
// tasks measured and reported. Tasks are leased in batches of Config.Batch
// (default, and always for a single worker: one per worker), measured on a
// pool of Config.Workers local workers (default 1) — with more than one the
// target must be safe for concurrent use — and the batch is reported back
// in one request once all of it is measured. A report rejected because its
// lease was lost is skipped, as in RunOnce.
func (c *Client) RunAll(target metrics.Target, maxTasks int) (int, error) {
	c.enableTrace(target)
	poolSize := max(1, c.cfg.Workers)
	batch := c.cfg.Batch
	if batch <= 0 || poolSize == 1 {
		// A serial driver leases one task at a time: a larger batch would
		// only age in the lease while its predecessors are measured.
		batch = poolSize
	}
	done := 0
	for maxTasks == 0 || done < maxTasks {
		want := batch
		if maxTasks > 0 && maxTasks-done < want {
			want = maxTasks - done
		}
		tasks, err := c.RequestTasks(want)
		if err != nil {
			return done, err
		}
		if len(tasks) == 0 {
			return done, nil
		}
		landed, err := c.report(tasks, c.measureAll(target, tasks, poolSize))
		done += landed
		if err != nil {
			return done, err
		}
	}
	return done, nil
}
