package replica

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/obsv"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/store"
)

var (
	mSyncs = obsv.NewCounterVec("polygamy_replica_syncs_total",
		"Follower snapshot sync attempts, by outcome (applied, noop, error).", "outcome")
	mSectionsFetched = obsv.NewCounter("polygamy_replica_sections_fetched_total",
		"Snapshot sections downloaded from the leader.")
	mSectionsReused = obsv.NewCounter("polygamy_replica_sections_reused_total",
		"Snapshot sections reused from the serving epoch or the durable copy (unchanged CRC).")
	mSectionBytesFetched = obsv.NewCounter("polygamy_replica_section_bytes_fetched_total",
		"Section payload bytes downloaded from the leader.")
	mEpoch = obsv.NewGauge("polygamy_replica_epoch",
		"Serving epoch of this follower (increments on every applied sync).")
	// wait is the manifest request (a leader's hold included), fetch the
	// section downloads and reuse, open the new epoch's framework, write
	// the durable copy (when Path is set) and the swap.
	mSyncStage = obsv.NewHistogramVec("polygamy_replica_sync_stage_duration_seconds",
		"Follower sync latency by stage (wait, fetch, open, write).", nil, "stage")
)

// FollowerOptions configures a follower.
type FollowerOptions struct {
	// Leader is the leader's base URL.
	Leader string
	// Path, when set, is where the follower keeps a durable copy of its
	// serving epoch, written before each swap: a restarted follower reuses
	// its unchanged sections on its first sync. Empty keeps nothing on
	// disk; either way an epoch is served from memory.
	Path string
	// Grid is the synthetic city grid side; it must match the leader's
	// -grid (the seed travels in the snapshot fingerprint, the grid does
	// not).
	Grid int
	// Workers sizes the framework worker pool (0 = NumCPU).
	Workers int
	// Poll is how often an idle follower asks the leader for its manifest.
	// Run's conditional request carries Poll as a wait: the leader holds it
	// until it publishes a new snapshot or Poll runs out, so an epoch
	// applies at publish time, and Run asks again at once. A leader that
	// answers sooner without a change is asked again after the rest of
	// Poll. The HTTP client's timeout must exceed Poll.
	Poll time.Duration
	// HTTPClient overrides the leader transport. Nil gets a client whose
	// Timeout is Poll plus transferMargin, so a held
	// manifest request answers in time and a stalled leader fails the sync.
	HTTPClient *http.Client
}

// FollowerStatus is one observable snapshot of a follower's replication
// state (served by polygamyd as /v1/replica/status).
type FollowerStatus struct {
	Leader              string            `json:"leader"`
	Epoch               int64             `json:"epoch"`
	ETag                string            `json:"etag,omitempty"`
	Fingerprint         store.Fingerprint `json:"fingerprint"`
	LastSync            time.Time         `json:"lastSync,omitzero"`
	LastError           string            `json:"lastError,omitempty"`
	Syncs               int64             `json:"syncs"`
	Noops               int64             `json:"noops"`
	Failures            int64             `json:"failures"`
	ConsecutiveFailures int               `json:"consecutiveFailures"`
	SectionsFetched     int64             `json:"sectionsFetched"`
	SectionsReused      int64             `json:"sectionsReused"`
	BytesFetched        int64             `json:"bytesFetched"`
}

// Follower pulls snapshots from a leader and serves them through an
// atomically swapped Framework pointer. One Follower owns its Path; Sync
// and Run must not race each other (Run is the only caller in production,
// tests drive Sync directly).
type Follower struct {
	opts   FollowerOptions
	client *Client

	cur atomic.Pointer[core.Framework]

	mu       sync.Mutex // guards the sync state below
	etag     string
	manifest store.Manifest
	have     map[store.SectionInfo][]byte // the serving epoch's verified sections
	epoch    int64
	lastSync time.Time
	lastErr  string
	fails    int
	syncs    int64
	noops    int64
	failures int64
	fetched  int64
	reused   int64
	bytes    int64
}

// NewFollower validates the options and builds a follower. No network
// traffic happens until Sync or Run.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Grid <= 0 {
		opts.Grid = 32
	}
	if opts.Poll <= 0 {
		opts.Poll = 2 * time.Second
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = &http.Client{Timeout: opts.Poll + transferMargin}
	}
	client, err := NewClient(opts.Leader, opts.HTTPClient)
	if err != nil {
		return nil, err
	}
	return &Follower{opts: opts, client: client}, nil
}

// Framework returns the currently serving framework — nil until the
// first successful sync. An epoch is heap, not a mapping: a swapped-out
// one keeps answering the queries in flight on it, and the GC collects it
// once none reaches it, so nothing needs closing.
func (f *Follower) Framework() *core.Framework { return f.cur.Load() }

// Status reports the follower's replication state.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		Leader:              f.opts.Leader,
		Epoch:               f.epoch,
		ETag:                f.etag,
		Fingerprint:         f.manifest.Fingerprint,
		LastSync:            f.lastSync,
		LastError:           f.lastErr,
		Syncs:               f.syncs,
		Noops:               f.noops,
		Failures:            f.failures,
		ConsecutiveFailures: f.fails,
		SectionsFetched:     f.fetched,
		SectionsReused:      f.reused,
		BytesFetched:        f.bytes,
	}
}

// Sync performs one poll-and-apply cycle without asking the leader to
// hold the request. It returns (true, nil) when a new epoch was applied,
// (false, nil) when the leader's snapshot was unchanged, and (false, err)
// on any failure — in which case the serving framework and all sync state
// are exactly as before: a failed sync can never leave a torn epoch.
func (f *Follower) Sync(ctx context.Context) (applied bool, err error) {
	return f.sync(ctx, 0)
}

// sync is Sync with a wait the leader may hold an unchanged manifest
// request for. The request runs outside mu, so Status answers during a
// hold; the apply runs under it.
func (f *Follower) sync(ctx context.Context, wait time.Duration) (applied bool, err error) {
	f.mu.Lock()
	etag := f.etag
	f.mu.Unlock()
	t0 := time.Now()
	info, notModified, err := f.client.Manifest(ctx, etag, wait)
	waited := time.Since(t0)

	f.mu.Lock()
	defer f.mu.Unlock()
	if err == nil && !notModified {
		err = f.applyLocked(ctx, info)
		applied = err == nil
	}
	f.lastSync = time.Now()
	switch {
	case err != nil:
		f.failures++
		f.fails++
		f.lastErr = err.Error()
		mSyncs.With("error").Inc()
		return false, err
	case applied:
		f.syncs++
		mSyncs.With("applied").Inc()
	default:
		f.noops++
		mSyncs.With("noop").Inc()
	}
	f.fails = 0
	f.lastErr = ""
	mSyncStage.With("wait").Observe(waited.Seconds())
	return applied, nil
}

// applyLocked pulls the snapshot info describes, opens it in memory and
// swaps it in as the next epoch.
func (f *Follower) applyLocked(ctx context.Context, info ManifestInfo) error {
	m := info.Manifest
	t0 := time.Now()

	// Pull only the sections that changed and reuse the rest. Every byte is
	// checked against its CRC once: as it arrives, or when the epoch (or
	// the durable copy, by store.Read) it is reused from was opened.
	// Fetches carry If-Match, so a leader rotating mid-sync fails the whole
	// cycle instead of mixing epochs.
	have := f.have
	if have == nil && f.opts.Path != "" {
		if local, payloads, err := store.Read(f.opts.Path); err == nil {
			have = make(map[store.SectionInfo][]byte, len(local.Sections))
			for _, info := range local.Sections {
				have[info] = payloads[info.Name]
			}
		}
	}
	sections := make([]store.Section, 0, len(m.Sections))
	next := make(map[store.SectionInfo][]byte, len(m.Sections))
	var fetched, reused, bytes int64
	for _, want := range m.Sections {
		data, ok := have[want]
		if ok {
			reused++
		} else {
			var err error
			data, err = f.client.Section(ctx, info.ETag, want)
			if err != nil {
				return err
			}
			fetched++
			bytes += int64(len(data))
		}
		sections = append(sections, store.Section{Name: want.Name, Data: data, CRC: want.CRC, Verified: true})
		next[want] = data
	}
	container, err := store.Assemble(store.Manifest{Fingerprint: m.Fingerprint, ClauseSig: m.ClauseSig}, sections)
	if err != nil {
		return err
	}
	t1 := time.Now()

	// The snapshot names the corpus and its index answers every read, so
	// the framework holds no raw data and refuses writes.
	city, err := spatial.Generate(spatial.GridConfig(m.Fingerprint.Seed, f.opts.Grid))
	if err != nil {
		return err
	}
	fw, err := core.New(core.Options{City: city, Workers: f.opts.Workers, Seed: m.Fingerprint.Seed})
	if err != nil {
		return err
	}
	if err := fw.LoadContainer(container); err != nil {
		return err
	}
	t2 := time.Now()

	// The durable copy is written (atomically) before the swap, so a failed
	// write fails the sync. After the swap, queries in flight finish on the
	// previous epoch, and the GC frees it once none holds it.
	if f.opts.Path != "" {
		if err := store.Write(f.opts.Path, container.Manifest(), sections); err != nil {
			return err
		}
	}
	f.cur.Store(fw)
	f.have = next
	f.etag = info.ETag
	f.manifest = m
	f.epoch++
	f.fetched += fetched
	f.reused += reused
	f.bytes += bytes
	mSectionsFetched.Add(uint64(fetched))
	mSectionsReused.Add(uint64(reused))
	mSectionBytesFetched.Add(uint64(bytes))
	mEpoch.Set(float64(f.epoch))
	mSyncStage.With("fetch").Observe(t1.Sub(t0).Seconds())
	mSyncStage.With("open").Observe(t2.Sub(t1).Seconds())
	mSyncStage.With("write").Observe(time.Since(t2).Seconds())
	slog.Info("replica: applied snapshot epoch",
		"epoch", f.epoch, "etag", f.etag,
		"sectionsFetched", fetched, "sectionsReused", reused, "bytesFetched", bytes,
		"datasets", len(m.Fingerprint.Datasets))
	return nil
}

// backoffDelay is the poll delay after fails consecutive failures:
// exponential from base, capped at max (Run's cap is 16 Polls). fails == 0
// is the steady-state cadence.
func backoffDelay(base time.Duration, fails int, max time.Duration) time.Duration {
	d := base
	for i := 0; i < fails; i++ {
		d *= 2
		if d >= max {
			return max
		}
	}
	if d > max {
		return max
	}
	return d
}

// Run follows the leader until ctx is cancelled. The first cycle runs
// immediately, so a follower whose leader is up serves within one round
// trip of starting. After an applied sync, or an unchanged manifest the
// leader held for the whole Poll, Run asks again at once; after a sooner
// unchanged answer it sleeps the rest of Poll, and while syncs fail it
// backs off exponentially.
func (f *Follower) Run(ctx context.Context) {
	for {
		t0 := time.Now()
		applied, err := f.sync(ctx, f.opts.Poll)
		var delay time.Duration
		switch {
		case err != nil:
			if ctx.Err() == nil {
				slog.Warn("replica: sync failed", "leader", f.opts.Leader, "error", err)
			}
			f.mu.Lock()
			delay = backoffDelay(f.opts.Poll, f.fails, 16*f.opts.Poll)
			f.mu.Unlock()
		case !applied:
			delay = f.opts.Poll - time.Since(t0)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// WaitReady blocks until the follower has applied its first epoch or the
// context expires. It assumes Run (or a Sync caller) is active.
func (f *Follower) WaitReady(ctx context.Context) error {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if f.Framework() != nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("replica: follower not ready: %w (last error: %s)", ctx.Err(), f.Status().LastError)
		case <-tick.C:
		}
	}
}
