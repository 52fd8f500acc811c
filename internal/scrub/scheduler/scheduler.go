package scheduler

import (
	"sync"
	"sync/atomic"
	"time"

	"cdstore/internal/client"
	"cdstore/internal/protocol"
)

// Client is what the scheduler needs of a connected CDStore client
// (*client.Client implements it): the scrub report and control calls it
// polls with, and the repair it heals through.
type Client interface {
	UserID() uint64
	ScrubControl(cloud int, op byte) error
	ScrubStatus(cloud int) (*protocol.ScrubReport, error)
	Repair(path string, cloud int) (*client.RepairStats, error)
}

// Scheduler is the background repair half of the scrub subsystem: it
// polls each cloud's scrub report (MsgScrubStatus) and, during idle
// windows, proactively heals every affected file with one Client.Repair
// call, which asks the cloud what it holds of the file and rebuilds the
// rest — damaged shares, or the recipe and every share the cloud lacks
// when the recipe itself was lost. Repairs stream window-by-window, so
// the scheduler holds O(window) memory per in-flight file regardless of
// file size.
//
// A cloud reports only the files of the session's own user, named by
// their server-side paths; deployments that encode pathnames (§4.3,
// Options.EncodePaths) need a per-user repair agent that can decode
// them — this scheduler skips such files rather than guessing.
type Scheduler struct {
	cfg Config

	mu     sync.Mutex
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup

	rounds          atomic.Uint64
	repairs         atomic.Uint64
	sharesRebuilt   atomic.Uint64
	bytesReuploaded atomic.Uint64
	bytesDownloaded atomic.Uint64
	repairErrors    atomic.Uint64
}

// Config configures a repair Scheduler.
type Config struct {
	// Client is a connected CDStore client spanning the deployment's
	// clouds; all polls and repairs run through its sessions.
	Client Client
	// N is the number of clouds to poll (cloud indices 0..N-1).
	N int
	// Interval is the background poll cadence; <= 0 leaves the loop off
	// (RunOnce still works, for tests and cron-style drivers).
	Interval time.Duration
	// IdleThresholdBytes gates repair on server load: a cloud reporting
	// more in-flight admitted payload bytes than this is busy, and its
	// repairs wait for the next round. 0 repairs only fully idle clouds.
	IdleThresholdBytes uint64
	// Concurrency bounds parallel file repairs per cloud per round
	// (default 1).
	Concurrency int
	// TriggerPass asks each cloud to run a synchronous scrub pass before
	// polling its report, instead of relying on the server's own
	// background interval.
	TriggerPass bool
}

// RepairOutcome reports one file repair the scheduler attempted.
type RepairOutcome struct {
	Cloud         int
	Path          string
	SharesRebuilt int64
	// BytesReuploaded counts re-dispersed share bytes written back to the
	// repaired cloud; BytesDownloaded counts the read-side egress the
	// rebuild pulled from the healthy clouds. Their ratio is the repair's
	// read amplification.
	BytesReuploaded int64
	BytesDownloaded int64
	Err             error
}

// Round reports one poll-and-repair cycle.
type Round struct {
	CloudsPolled int
	CloudsBusy   int
	CloudsDown   int
	SkippedFiles int // encoded paths (and any other user's file a server lists)
	Outcomes     []RepairOutcome
}

// Counters snapshots the scheduler's lifetime counters.
type Counters struct {
	Rounds          uint64
	Repairs         uint64
	SharesRebuilt   uint64
	BytesReuploaded uint64
	BytesDownloaded uint64
	RepairErrors    uint64
}

// New builds a Scheduler; call Start for the background loop
// or RunOnce to drive rounds explicitly.
func New(cfg Config) *Scheduler {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	return &Scheduler{cfg: cfg, done: make(chan struct{})}
}

// Start launches the background poll loop (no-op when Interval <= 0).
func (s *Scheduler) Start() {
	if s.cfg.Interval <= 0 {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.done:
				return
			case <-time.After(s.cfg.Interval):
			}
			// Poll errors surface in the round report; the loop itself
			// must outlive transiently unreachable clouds.
			_, _ = s.RunOnce()
		}
	}()
}

// Close stops the background loop and waits for an in-flight round.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// Counters snapshots the lifetime counters.
func (s *Scheduler) Counters() Counters {
	return Counters{
		Rounds:          s.rounds.Load(),
		Repairs:         s.repairs.Load(),
		SharesRebuilt:   s.sharesRebuilt.Load(),
		BytesReuploaded: s.bytesReuploaded.Load(),
		BytesDownloaded: s.bytesDownloaded.Load(),
		RepairErrors:    s.repairErrors.Load(),
	}
}

// RunOnce polls every cloud and repairs what the idle gate admits,
// returning the round's report. Unreachable clouds are counted, not
// fatal: the deployment heals whatever is reachable.
func (s *Scheduler) RunOnce() (*Round, error) {
	s.rounds.Add(1)
	r := &Round{}
	uid := s.cfg.Client.UserID()
	for cloud := 0; cloud < s.cfg.N; cloud++ {
		if s.cfg.TriggerPass {
			if err := s.cfg.Client.ScrubControl(cloud, protocol.ScrubOpRunPass); err != nil {
				r.CloudsDown++
				continue
			}
		}
		rep, err := s.cfg.Client.ScrubStatus(cloud)
		if err != nil {
			r.CloudsDown++
			continue
		}
		r.CloudsPolled++
		if len(rep.Affected) == 0 {
			continue
		}
		if rep.InflightBytes > s.cfg.IdleThresholdBytes {
			// The cloud is serving client traffic; repair re-dispersal
			// waits for an idle window.
			r.CloudsBusy++
			continue
		}

		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, s.cfg.Concurrency)
		for i := range rep.Affected {
			af := rep.Affected[i]
			if af.UserID != uid || !repairablePath(af.Path) {
				r.SkippedFiles++
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				st, err := s.cfg.Client.Repair(af.Path, cloud)
				out := RepairOutcome{Cloud: cloud, Path: af.Path, Err: err}
				if st != nil {
					out.SharesRebuilt = st.SharesRebuilt
					out.BytesReuploaded = st.BytesReuploads
					out.BytesDownloaded = st.Restore.DownloadedBytes
				}
				if out.Err != nil {
					s.repairErrors.Add(1)
				} else {
					s.repairs.Add(1)
				}
				s.sharesRebuilt.Add(uint64(out.SharesRebuilt))
				s.bytesReuploaded.Add(uint64(out.BytesReuploaded))
				s.bytesDownloaded.Add(uint64(out.BytesDownloaded))
				mu.Lock()
				r.Outcomes = append(r.Outcomes, out)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	return r, nil
}

// repairablePath reports whether a server-side path can be fed back to
// the client as-is: encoded paths (§4.3's "x1:" scheme) cannot — their
// plaintext needs k clouds' shares, which a per-user agent holds.
func repairablePath(path string) bool {
	return len(path) < 3 || path[:3] != "x1:"
}
