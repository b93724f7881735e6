package jobs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestJobLifecycle(t *testing.T) {
	m := NewManager()
	release := make(chan struct{})
	j := m.Start("ingest", "taxi", func() (map[string]any, error) {
		<-release
		return map[string]any{"functions": 12}, nil
	})
	if j.Status != Pending || j.ID == "" || j.Kind != "ingest" || j.Detail != "taxi" {
		t.Fatalf("initial snapshot = %+v", j)
	}
	close(release)
	got, done := m.Wait(j.ID, 5*time.Second)
	if !done || got.Status != Done {
		t.Fatalf("job = %+v, done = %t", got, done)
	}
	if got.Result["functions"] != 12 {
		t.Errorf("result = %v", got.Result)
	}
	if got.Finished.Before(got.Started) || got.Started.Before(got.Created) {
		t.Errorf("timestamps out of order: %+v", got)
	}
	for st, want := range map[Status]bool{Pending: false, Running: false, Done: true, Failed: true} {
		if st.Terminal() != want {
			t.Errorf("%s.Terminal() = %t, want %t", st, !want, want)
		}
	}
}

func TestJobFailure(t *testing.T) {
	m := NewManager()
	j := m.Start("ingest", "bad", func() (map[string]any, error) {
		return nil, fmt.Errorf("csv: malformed header")
	})
	got, done := m.Wait(j.ID, 5*time.Second)
	if !done || got.Status != Failed {
		t.Fatalf("job = %+v", got)
	}
	if got.Error != "csv: malformed header" {
		t.Errorf("error = %q", got.Error)
	}
}

func TestGetUnknown(t *testing.T) {
	m := NewManager()
	if _, ok := m.Get("job-404"); ok {
		t.Error("Get of unknown ID should report !ok")
	}
}

func TestListNewestFirst(t *testing.T) {
	m := NewManager()
	var ids []string
	for i := 0; i < 3; i++ {
		j := m.Start("k", fmt.Sprintf("d%d", i), func() (map[string]any, error) { return nil, nil })
		ids = append(ids, j.ID)
	}
	for _, id := range ids {
		if _, done := m.Wait(id, 5*time.Second); !done {
			t.Fatal("job did not finish")
		}
	}
	list := m.List()
	if len(list) != 3 {
		t.Fatalf("list = %d jobs", len(list))
	}
	for i, j := range list {
		if want := ids[len(ids)-1-i]; j.ID != want {
			t.Errorf("list[%d] = %s, want %s", i, j.ID, want)
		}
	}
}

func TestHistoryEviction(t *testing.T) {
	m := NewManager()
	m.history = 2
	var ids []string
	for i := 0; i < 5; i++ {
		j := m.Start("k", "d", func() (map[string]any, error) { return nil, nil })
		m.Wait(j.ID, 5*time.Second)
		ids = append(ids, j.ID)
	}
	if got := len(m.List()); got > 3 {
		t.Errorf("history grew to %d jobs with bound 2", got)
	}
	// The newest job always survives.
	if _, ok := m.Get(ids[len(ids)-1]); !ok {
		t.Error("newest job was evicted")
	}
}

func TestConcurrentJobs(t *testing.T) {
	m := NewManager()
	var wg sync.WaitGroup
	ids := make([]string, 20)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := m.Start("k", "d", func() (map[string]any, error) {
				return map[string]any{"i": i}, nil
			})
			ids[i] = j.ID
			got, done := m.Wait(j.ID, 5*time.Second)
			if !done || got.Status != Done {
				t.Errorf("job %d = %+v", i, got)
			}
		}(i)
	}
	wg.Wait()
	seen := map[string]bool{}
	for _, id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		seen[id] = true
	}
}

// Wait blocks until the job reaches a terminal state or the timeout
// elapses, returning the latest snapshot and whether it is terminal. Only
// these tests wait on a job; the serving layer polls Get.
func (m *Manager) Wait(id string, timeout time.Duration) (Job, bool) {
	deadline := time.Now().Add(timeout)
	for {
		j, ok := m.Get(id)
		if !ok {
			return Job{}, false
		}
		if j.Status.Terminal() {
			return j, true
		}
		if time.Now().After(deadline) {
			return j, false
		}
		time.Sleep(2 * time.Millisecond)
	}
}
