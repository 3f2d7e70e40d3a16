package jobs

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"langcrawl/internal/checkpoint"
)

// jobFile is the persisted job record's filename inside its state dir.
const jobFile = "job.json"

// Store is the durable job table: one directory per job under root,
// each holding the job record (written with checkpoint.WriteFileAtomic,
// so a crash leaves the previous record, never a torn one) plus the
// job's crawl artifacts — its crawl log and its §11 checkpoint
// directory, which is what makes a killed daemon's in-flight jobs
// resumable. Safe for concurrent use.
type Store struct {
	root string
	fsys checkpoint.FS

	mu   sync.Mutex
	jobs map[string]*Job
	next uint64 // next admission sequence number
	// ended, when set, is called under mu as a job moves to a terminal
	// status, before any reader can see the move.
	ended func(Status)
}

// OpenStore opens (creating if needed) the job table rooted at root,
// loading every persisted job. A nil fsys means the real filesystem.
func OpenStore(root string, fsys checkpoint.FS) (*Store, error) {
	if fsys == nil {
		fsys = checkpoint.OSFS{}
	}
	if err := fsys.MkdirAll(root); err != nil {
		return nil, fmt.Errorf("jobs: mkdir %s: %w", root, err)
	}
	s := &Store{root: root, fsys: fsys, jobs: make(map[string]*Job), next: 1}
	names, err := fsys.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("jobs: reading %s: %w", root, err)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "job-") {
			continue
		}
		data, err := fsys.ReadFile(filepath.Join(root, name, jobFile))
		if err != nil {
			// A directory without a committed record is a job that died
			// between slot reservation and its first atomic write — which
			// the admission path never allows (the record is written before
			// 202 is returned), or leftover tmp state. Skip it.
			continue
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("jobs: corrupt job record %s/%s: %w", name, jobFile, err)
		}
		if j.ID != strings.TrimPrefix(name, "job-") {
			return nil, fmt.Errorf("jobs: job record in %s names id %q", name, j.ID)
		}
		s.jobs[j.ID] = &j
		if j.Submitted >= s.next {
			s.next = j.Submitted + 1
		}
	}
	return s, nil
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

// Dir returns the state directory of job id.
func (s *Store) Dir(id string) string { return filepath.Join(s.root, "job-"+id) }

// Create admits a new job for spec: assigns the next sequence ID,
// creates its state directory, and durably writes its record with
// status queued. The returned copy is safe to use outside the lock.
func (s *Store) Create(spec *Spec) (*Job, error) {
	s.mu.Lock()
	seq := s.next
	s.next++
	j := &Job{
		ID:        fmt.Sprintf("%08d", seq),
		Spec:      *spec,
		Status:    StatusQueued,
		Submitted: seq,
	}
	s.jobs[j.ID] = j
	c := j.clone()
	s.mu.Unlock()

	if err := s.fsys.MkdirAll(s.Dir(j.ID)); err != nil {
		return nil, fmt.Errorf("jobs: mkdir job dir: %w", err)
	}
	if err := s.persist(c); err != nil {
		return nil, err
	}
	return c, nil
}

// Get returns a copy of job id.
func (s *Store) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns copies of every job, ordered by admission sequence.
func (s *Store) List() []*Job {
	s.mu.Lock()
	out := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, j.clone())
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Submitted < out[k].Submitted })
	return out
}

// Pending returns copies of every non-terminal job (queued or running)
// in admission order — what a restarted daemon re-queues.
func (s *Store) Pending() []*Job {
	all := s.List()
	out := all[:0]
	for _, j := range all {
		if !j.Status.Terminal() {
			out = append(out, j)
		}
	}
	return out
}

// TenantActive counts tenant's non-terminal jobs, the max-concurrent
// admission input.
func (s *Store) TenantActive(tenant string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, j := range s.jobs {
		if j.Spec.Tenant == tenant && !j.Status.Terminal() {
			n++
		}
	}
	return n
}

// SetStatus moves job id to next — with errMsg on failed, result on
// done — enforcing monotonicity, and durably persists the new record.
// The persisted write happens outside the table lock; records for one
// job are only written by its single executor (or the submit path
// before any executor sees it), so writes never race per job.
func (s *Store) SetStatus(id string, next Status, errMsg string, result *Summary) (*Job, error) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("jobs: no job %q", id)
	}
	if err := j.transition(next); err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("job %s: %w", id, err)
	}
	if next != j.Status && next.Terminal() && s.ended != nil {
		s.ended(next)
	}
	j.Status = next
	if errMsg != "" {
		j.Error = errMsg
	}
	if result != nil {
		r := *result
		j.Result = &r
	}
	c := j.clone()
	s.mu.Unlock()
	if err := s.persist(c); err != nil {
		return nil, err
	}
	return c, nil
}

// persist durably writes j's record into its state dir.
func (s *Store) persist(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("jobs: encoding job %s: %w", j.ID, err)
	}
	if err := checkpoint.WriteFileAtomic(s.fsys, filepath.Join(s.Dir(j.ID), jobFile), data); err != nil {
		return fmt.Errorf("jobs: persisting job %s: %w", j.ID, err)
	}
	return nil
}

// parseID reports whether id looks like a store-issued job ID (fixed-
// width decimal) — the HTTP layer rejects anything else before touching
// the table, so a hostile path segment can't probe the filesystem.
func parseID(id string) bool {
	if len(id) != 8 {
		return false
	}
	_, err := strconv.ParseUint(id, 10, 64)
	return err == nil
}
