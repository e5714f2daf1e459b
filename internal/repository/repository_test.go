package repository

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// leaseOne leases at most one task, nil when the experiment has nothing
// left for the target.
func leaseOne(s *Store, key string, expID int, dbms, platform string) (*Task, error) {
	tasks, err := s.RequestTasks(key, expID, dbms, platform, 1)
	if err != nil || len(tasks) == 0 {
		return nil, err
	}
	return tasks[0], nil
}

// fixture builds a store with two users, a public and a private project and
// one experiment with two queries.
func fixture(t *testing.T) (*Store, *Project, *Project) {
	t.Helper()
	s := NewStore()
	if _, err := s.RegisterUser("martin", "martin@example.org"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("ying", "ying@example.org"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RegisterUser("visitor", "v@example.org"); err != nil {
		t.Fatal(err)
	}
	pub, err := s.CreateProject("martin", "tpch-public", "TPC-H inspired project", true)
	if err != nil {
		t.Fatal(err)
	}
	priv, err := s.CreateProject("martin", "secret-appliance", "private vendor tests", false)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := s.AddExperiment("martin", pub.ID, "Q1 space", "SELECT count(*) FROM nation", "query:\n\tSELECT ...")
	if err != nil {
		t.Fatal(err)
	}
	err = s.ReplaceQueries("martin", pub.ID, exp.ID, []QueryRecord{
		{ID: 1, SQL: "SELECT count(*) FROM nation", Strategy: "baseline", Components: 2},
		{ID: 2, SQL: "SELECT n_name FROM nation", Strategy: "random", Components: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, pub, priv
}

func TestUserRegistration(t *testing.T) {
	s := NewStore()
	u, err := s.RegisterUser("alice", "alice@example.org")
	if err != nil {
		t.Fatal(err)
	}
	if u.Nickname != "alice" {
		t.Errorf("nickname = %q", u.Nickname)
	}
	if _, err := s.RegisterUser("alice", "other@example.org"); err == nil {
		t.Error("duplicate nickname should fail")
	}
	for _, bad := range []string{"", "no-at-sign", "@example.org", "x@", "spaces in@mail.org"} {
		if _, err := s.RegisterUser("u"+bad, bad); err == nil {
			t.Errorf("email %q should be rejected", bad)
		}
	}
	if s.User("alice") == nil || s.User("nobody") != nil {
		t.Error("User lookup wrong")
	}
	if len(s.Users()) != 1 {
		t.Errorf("Users() = %d entries", len(s.Users()))
	}
}

func TestProjectCreationAndVisibility(t *testing.T) {
	s, pub, priv := fixture(t)
	if _, err := s.CreateProject("ghost", "x", "", true); err == nil {
		t.Error("unknown owner should fail")
	}
	if _, err := s.CreateProject("martin", "tpch-public", "", true); err == nil {
		t.Error("duplicate project name should fail")
	}
	if _, err := s.CreateProject("martin", "  ", "", true); err == nil {
		t.Error("empty name should fail")
	}

	// Roles.
	if s.RoleOf("martin", pub.ID) != RoleOwner {
		t.Error("owner role wrong")
	}
	if s.RoleOf("visitor", pub.ID) != RoleReader {
		t.Error("public projects are readable by everyone")
	}
	if s.RoleOf("visitor", priv.ID) != RoleNone {
		t.Error("private projects are invisible to outsiders")
	}
	if s.RoleOf("", pub.ID) != RoleReader || s.RoleOf("", priv.ID) != RoleNone {
		t.Error("anonymous role wrong")
	}

	// Visible project listings.
	if got := len(s.Projects("visitor")); got != 1 {
		t.Errorf("visitor sees %d projects, want 1", got)
	}
	if got := len(s.Projects("martin")); got != 2 {
		t.Errorf("owner sees %d projects, want 2", got)
	}

	// Visibility switch.
	if err := s.SetVisibility("visitor", priv.ID, true); err == nil {
		t.Error("non-owner cannot change visibility")
	}
	if err := s.SetVisibility("martin", priv.ID, true); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Projects("visitor")); got != 2 {
		t.Errorf("after publishing, visitor sees %d projects", got)
	}
}

func TestInvitationsAndContributorKeys(t *testing.T) {
	s, pub, priv := fixture(t)
	key, err := s.Invite("martin", priv.ID, "ying")
	if err != nil {
		t.Fatal(err)
	}
	if key == "" {
		t.Fatal("empty contributor key")
	}
	// Repeated invitations return the same key.
	again, _ := s.Invite("martin", priv.ID, "ying")
	if again != key {
		t.Error("re-invitation should keep the key")
	}
	if _, err := s.Invite("ying", priv.ID, "visitor"); err == nil {
		t.Error("only the owner can invite")
	}
	if _, err := s.Invite("martin", priv.ID, "ghost"); err == nil {
		t.Error("cannot invite unregistered users")
	}
	// The contributor can now view and contribute to the private project.
	if !s.CanView("ying", priv.ID) || s.RoleOf("ying", priv.ID) != RoleContributor {
		t.Error("contributor permissions wrong")
	}
	if s.RoleOf("visitor", pub.ID) != RoleReader {
		t.Error("readers cannot contribute")
	}
	// Key resolution.
	p, nick, err := s.FindContributor(key)
	if err != nil || p.ID != priv.ID || nick != "ying" {
		t.Errorf("FindContributor = %v %q %v", p, nick, err)
	}
	if _, _, err := s.FindContributor("bogus"); err == nil {
		t.Error("unknown keys must not resolve")
	}
}

func TestExperimentAndQueryPoolManagement(t *testing.T) {
	s, pub, _ := fixture(t)
	if _, err := s.AddExperiment("visitor", pub.ID, "x", "SELECT 1", ""); err == nil {
		t.Error("only the owner can add experiments")
	}
	exp := s.Project(pub.ID).Experiment(1)
	if exp == nil || len(exp.Queries) != 2 {
		t.Fatalf("fixture experiment wrong: %+v", exp)
	}
	if exp.Query(1) == nil || exp.Query(99) != nil {
		t.Error("Query lookup wrong")
	}
	grown := append(slices.Clone(exp.Queries), QueryRecord{ID: 3, SQL: "SELECT n_comment FROM nation", Strategy: "alter", ParentID: 2})
	if err := s.ReplaceQueries("martin", pub.ID, 1, grown); err != nil {
		t.Fatal(err)
	}
	if len(s.Project(pub.ID).Experiment(1).Queries) != 3 {
		t.Error("replacing did not grow the pool")
	}
	if err := s.ReplaceQueries("ying", pub.ID, 1, nil); err == nil {
		t.Error("non-owner cannot manage the pool")
	}
	if err := s.ReplaceQueries("martin", pub.ID, 42, nil); err == nil {
		t.Error("unknown experiment should fail")
	}
}

func TestResultsAndModeration(t *testing.T) {
	s, pub, _ := fixture(t)
	ownerKey := s.Project(pub.ID).Contributors[0].Key

	r, err := s.AddResultTraced(ownerKey, 1, 1, "columba-1.0", "laptop", []float64{0.12, 0.11, 0.13}, "", map[string]string{"load_avg_1": "0.5"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.MinSeconds() != 0.11 {
		t.Errorf("min seconds = %f", r.MinSeconds())
	}
	if r.Failed() {
		t.Error("result should not be failed")
	}
	if _, err := s.AddResultTraced(ownerKey, 1, 99, "columba-1.0", "laptop", nil, "", nil, nil); err == nil {
		t.Error("unknown query should fail")
	}
	if _, err := s.AddResultTraced("bogus", 1, 1, "columba-1.0", "laptop", nil, "", nil, nil); err == nil {
		t.Error("unknown key should fail")
	}
	// An error result.
	if _, err := s.AddResultTraced(ownerKey, 1, 2, "tuplestore-1.0", "laptop", nil, "syntax error", nil, nil); err != nil {
		t.Fatal(err)
	}

	if got := len(s.Results("visitor", pub.ID)); got != 2 {
		t.Errorf("visible results = %d, want 2", got)
	}
	// Moderation: hide one result; readers no longer see it, the owner does.
	if err := s.HideResult("visitor", r.ID, true); err == nil {
		t.Error("non-owner cannot hide results")
	}
	if err := s.HideResult("martin", r.ID, true); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Results("visitor", pub.ID)); got != 1 {
		t.Errorf("reader sees %d results after hiding, want 1", got)
	}
	if got := len(s.Results("martin", pub.ID)); got != 2 {
		t.Errorf("owner sees %d results, want 2", got)
	}
	if err := s.HideResult("martin", 999, true); err == nil {
		t.Error("hiding an unknown result should fail")
	}
	// An old log's delete record removes the row entirely.
	if err := s.logRecord(pub.ID, opResultDelete, walResultDelete{r.ID}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Results("martin", pub.ID)); got != 1 {
		t.Errorf("after delete, owner sees %d results", got)
	}
	// Results of invisible projects are not returned.
	if s.Results("visitor", 999) != nil {
		t.Error("unknown project should have no results")
	}
}

func TestComments(t *testing.T) {
	s, pub, priv := fixture(t)
	c, err := s.AddComment("visitor", pub.ID, "please document the indices used")
	if err != nil {
		t.Fatal(err)
	}
	if c.Author != "visitor" {
		t.Errorf("author = %q", c.Author)
	}
	if _, err := s.AddComment("visitor", priv.ID, "sneaky"); err == nil {
		t.Error("cannot comment on invisible projects")
	}
	if _, err := s.AddComment("ghost", pub.ID, "hello"); err == nil {
		t.Error("unregistered users cannot comment")
	}
	if _, err := s.AddComment("visitor", pub.ID, "   "); err == nil {
		t.Error("empty comments rejected")
	}
	if got := len(s.Comments("visitor", pub.ID)); got != 1 {
		t.Errorf("comments = %d", got)
	}
	if s.Comments("visitor", priv.ID) != nil {
		t.Error("comments of private projects are hidden")
	}
}

func TestTaskQueue(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key

	task, err := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if err != nil {
		t.Fatal(err)
	}
	if task == nil || task.QueryID != 1 || task.Status != TaskRunning {
		t.Fatalf("task = %+v", task)
	}
	// A second request hands out the next query, not the same one.
	task2, err := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if err != nil {
		t.Fatal(err)
	}
	if task2 == nil || task2.QueryID == task.QueryID {
		t.Fatalf("second task = %+v", task2)
	}
	// A different DBMS starts over from query 1.
	taskOther, err := leaseOne(s, key, 1, "tuplestore-1.0", "laptop")
	if err != nil {
		t.Fatal(err)
	}
	if taskOther == nil || taskOther.QueryID != 1 {
		t.Fatalf("other-dbms task = %+v", taskOther)
	}
	// Completing task 1 records a result.
	res, err := s.CompleteTaskTraced(task.ID, key, []float64{0.5, 0.4}, "", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.QueryID != task.QueryID || res.DBMSKey != "columba-1.0" {
		t.Errorf("result = %+v", res)
	}
	// Completing twice fails; completing with the wrong key fails.
	if _, err := s.CompleteTaskTraced(task.ID, key, nil, "", nil, nil); err == nil {
		t.Error("double completion should fail")
	}
	if _, err := s.CompleteTaskTraced(task2.ID, "wrong", nil, "", nil, nil); err == nil {
		t.Error("wrong key should fail")
	}
	// When everything is handed out, no more tasks for that combination.
	if task3, _ := leaseOne(s, key, 1, "columba-1.0", "laptop"); task3 != nil {
		t.Errorf("expected no further tasks, got %+v", task3)
	}
	// Unknown experiment.
	if _, err := leaseOne(s, key, 9, "columba-1.0", "laptop"); err == nil {
		t.Error("unknown experiment should fail")
	}
	// Queue listing visible to readers.
	if got := len(s.Tasks("visitor", pub.ID)); got != 3 {
		t.Errorf("task listing = %d, want 3", got)
	}
}

func TestTaskTimeoutAndKill(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key
	s.TaskTimeout = time.Minute

	// Control the clock.
	current := time.Date(2026, 6, 16, 12, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return current }

	task, err := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if err != nil || task == nil {
		t.Fatal(err)
	}
	// Before the deadline the same query is not handed out again; the next
	// request gets the other pool query instead.
	t2, _ := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if t2 != nil && t2.QueryID == task.QueryID {
		t.Error("query handed out twice while the task was active")
	}
	// After the deadline, both running tasks expire and their queries become
	// available again.
	current = current.Add(2 * time.Minute)
	if n := s.ExpireTasks(); n != 2 {
		t.Errorf("expired = %d, want 2", n)
	}
	if s.Tasks("martin", pub.ID)[0].Status != TaskTimeout {
		t.Error("task should be marked timeout")
	}
	t3, err := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if err != nil || t3 == nil || t3.QueryID != task.QueryID {
		t.Errorf("expired query should be reassigned, got %+v", t3)
	}
	// Completing an expired task is rejected.
	if _, err := s.CompleteTaskTraced(task.ID, key, nil, "", nil, nil); err == nil {
		t.Error("completing a timed out task should fail")
	}

	// An old log's kill record frees the slot: the query is handed out
	// again, and the killed lease cannot complete.
	if err := s.logRecord(pub.ID, opTaskKill, walTaskKill{TaskID: t3.ID, Finished: current}); err != nil {
		t.Fatal(err)
	}
	if t4, err := leaseOne(s, key, 1, "columba-1.0", "laptop"); err != nil || t4 == nil || t4.QueryID != t3.QueryID {
		t.Errorf("the killed task's query should be reassigned, got %+v, %v", t4, err)
	}
	if _, err := s.CompleteTaskTraced(t3.ID, key, nil, "", nil, nil); !errors.Is(err, ErrLeaseLost) {
		t.Errorf("completing a killed task: %v", err)
	}
}

func TestPersistence(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key
	if _, err := s.AddResultTraced(key, 1, 1, "columba-1.0", "laptop", []float64{0.2}, "", nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddComment("visitor", pub.ID, "nice project"); err != nil {
		t.Fatal(err)
	}
	if _, err := leaseOne(s, key, 1, "columba-1.0", "laptop"); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := s.Save(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Users()) != len(s.Users()) {
		t.Error("users lost")
	}
	if loaded.Project(pub.ID) == nil || loaded.Project(pub.ID).Name != "tpch-public" {
		t.Error("projects lost")
	}
	if len(loaded.Results("martin", pub.ID)) != 1 {
		t.Error("results lost")
	}
	if len(loaded.Comments("visitor", pub.ID)) != 1 {
		t.Error("comments lost")
	}
	if len(loaded.Tasks("martin", pub.ID)) != 1 {
		t.Error("tasks lost")
	}
	// New ids continue after the loaded ones.
	p2, err := loaded.CreateProject("martin", "another", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if p2.ID <= pub.ID {
		t.Errorf("id sequence restarted: %d", p2.ID)
	}
	// Loading from an empty directory yields an empty store.
	empty, err := Load(t.TempDir())
	if err != nil || len(empty.Users()) != 0 {
		t.Error("empty load wrong")
	}
}

func TestEmailsNeverExposedInProjectListings(t *testing.T) {
	// A regression guard: the JSON snapshot keeps emails (needed to reach
	// users) but project structures never embed them.
	s, pub, _ := fixture(t)
	for _, p := range s.Projects("visitor") {
		for _, c := range p.Contributors {
			if strings.Contains(c.Nickname, "@") {
				t.Error("contributor entries must use nicknames, not emails")
			}
		}
	}
	_ = pub
}

func TestRequestTasksBatch(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key

	tasks, err := s.RequestTasks(key, 1, "columba-1.0", "laptop", 5)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture experiment has two queries; both come back in one batch,
	// each with its own lease deadline.
	if len(tasks) != 2 {
		t.Fatalf("leased %d tasks, want 2", len(tasks))
	}
	if tasks[0].QueryID == tasks[1].QueryID {
		t.Error("one batch leased the same query twice")
	}
	for _, task := range tasks {
		if task.Status != TaskRunning {
			t.Errorf("leased task status = %s", task.Status)
		}
		if !task.Deadline.After(task.Assigned) {
			t.Errorf("lease deadline %v not after assignment %v", task.Deadline, task.Assigned)
		}
	}
	// The queue is drained: further requests lease nothing.
	more, err := s.RequestTasks(key, 1, "columba-1.0", "laptop", 5)
	if err != nil || len(more) != 0 {
		t.Errorf("drained queue leased %d tasks (err %v)", len(more), err)
	}
	// A different DBMS slot is independent.
	other, err := s.RequestTasks(key, 1, "tuplestore-1.0", "laptop", 1)
	if err != nil || len(other) != 1 {
		t.Fatalf("other-dbms lease = %d tasks (err %v)", len(other), err)
	}
}

func TestBatchLeaseExpiryRequeue(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key
	s.TaskTimeout = time.Minute
	current := time.Date(2026, 7, 27, 9, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return current }

	first, err := s.RequestTasks(key, 1, "columba-1.0", "laptop", 2)
	if err != nil || len(first) != 2 {
		t.Fatalf("lease = %d (err %v)", len(first), err)
	}
	// The driver crashes: the leases expire and the next request — which
	// expires stale leases itself, no daemon needed — gets the same queries.
	current = current.Add(2 * time.Minute)
	second, err := s.RequestTasks(key, 1, "columba-1.0", "laptop", 2)
	if err != nil || len(second) != 2 {
		t.Fatalf("post-expiry lease = %d (err %v)", len(second), err)
	}
	want := map[int]bool{first[0].QueryID: true, first[1].QueryID: true}
	for _, task := range second {
		if !want[task.QueryID] {
			t.Errorf("unexpected query %d re-leased", task.QueryID)
		}
	}
	// The late driver coming back cannot deliver into the expired lease, so
	// the re-leased measurement stays the only one — no duplicates.
	if _, err := s.CompleteTaskTraced(first[0].ID, key, []float64{0.1}, "", nil, nil); err == nil {
		t.Error("completing an expired lease should be rejected")
	}
	if _, err := s.CompleteTaskTraced(second[0].ID, key, []float64{0.1}, "", nil, nil); err != nil {
		t.Errorf("completing the live lease failed: %v", err)
	}
	results := s.Results("martin", pub.ID)
	if len(results) != 1 {
		t.Errorf("results = %d, want exactly 1 (no duplicate measurements)", len(results))
	}
}

func TestConcurrentBatchLeasingNeverDuplicates(t *testing.T) {
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key
	exp := s.Project(pub.ID).Experiments[0]
	var queries []QueryRecord
	for i := 1; i <= 40; i++ {
		queries = append(queries, QueryRecord{ID: i, SQL: fmt.Sprintf("SELECT %d FROM nation", i), Strategy: "random"})
	}
	if err := s.ReplaceQueries("martin", pub.ID, exp.ID, queries); err != nil {
		t.Fatal(err)
	}

	// Eight drivers hammer the queue concurrently with batch leases.
	var wg sync.WaitGroup
	var mu sync.Mutex
	claimed := map[int]int{}
	for d := 0; d < 8; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tasks, err := s.RequestTasks(key, exp.ID, "columba-1.0", "laptop", 3)
				if err != nil {
					t.Error(err)
					return
				}
				if len(tasks) == 0 {
					return
				}
				mu.Lock()
				for _, task := range tasks {
					claimed[task.QueryID]++
				}
				mu.Unlock()
				for _, task := range tasks {
					if _, err := s.CompleteTaskTraced(task.ID, key, []float64{0.01}, "", nil, nil); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if len(claimed) != len(queries) {
		t.Errorf("claimed %d distinct queries, want %d", len(claimed), len(queries))
	}
	for q, n := range claimed {
		if n != 1 {
			t.Errorf("query %d leased %d times", q, n)
		}
	}
	if got := len(s.Results("martin", pub.ID)); got != len(queries) {
		t.Errorf("results = %d, want %d", got, len(queries))
	}
}

func TestLateCompletionExpiresLazily(t *testing.T) {
	// Expiry must be evaluated on completion too: with a single stalled
	// driver and no competing RequestTasks call to trigger it, a stale
	// result must still be rejected.
	s, pub, _ := fixture(t)
	key := s.Project(pub.ID).Contributors[0].Key
	s.TaskTimeout = time.Minute
	current := time.Date(2026, 7, 27, 9, 0, 0, 0, time.UTC)
	s.now = func() time.Time { return current }

	task, err := leaseOne(s, key, 1, "columba-1.0", "laptop")
	if err != nil || task == nil {
		t.Fatal(err)
	}
	current = current.Add(time.Hour)
	_, err = s.CompleteTaskTraced(task.ID, key, []float64{0.1}, "", nil, nil)
	if !errors.Is(err, ErrLeaseLost) {
		t.Errorf("late completion error = %v, want ErrLeaseLost", err)
	}
	if got := len(s.Results("martin", pub.ID)); got != 0 {
		t.Errorf("stale result recorded: %d", got)
	}
}

// TestExperimentQueryMatchesScan holds Query's look at the id's own slot to
// the linear scan it shortcuts: pools numbered 1..n, pools with gaps, out of
// order or starting elsewhere, a pool replaced by a shorter one, and ids 0,
// −1 and past the end.
func TestExperimentQueryMatchesScan(t *testing.T) {
	scan := func(e *Experiment, id int) *QueryRecord {
		for i := range e.Queries {
			if e.Queries[i].ID == id {
				return &e.Queries[i]
			}
		}
		return nil
	}
	pool := func(ids ...int) []QueryRecord {
		qs := make([]QueryRecord, len(ids))
		for i, id := range ids {
			qs[i] = QueryRecord{ID: id, SQL: fmt.Sprintf("SELECT %d", id)}
		}
		return qs
	}
	dense := make([]int, 50)
	for i := range dense {
		dense[i] = i + 1
	}
	replaced := &Experiment{Queries: pool(dense...)}
	replaced.Queries = pool(4, 2, 9)
	for name, e := range map[string]*Experiment{
		"empty":       {},
		"dense":       {Queries: pool(dense...)},
		"gaps":        {Queries: pool(1, 3, 4, 7, 8, 20)},
		"shifted":     {Queries: pool(2, 3, 4, 5)},
		"unordered":   {Queries: pool(3, 1, 2, 5, 4)},
		"replaced":    replaced,
		"nonpositive": {Queries: pool(0, -1, 1)},
	} {
		for id := -2; id <= 60; id++ {
			if got, want := e.Query(id), scan(e, id); got != want {
				t.Errorf("%s: Query(%d) = %v, the scan finds %v", name, id, got, want)
			}
		}
	}
}
