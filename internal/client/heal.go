package client

import (
	"strings"
	"sync"

	"cdstore/internal/protocol"
)

// healer is what a heal round needs of a connected client (*Client
// implements it): the pass it triggers, the report it polls, the listing
// it names encoded paths from, and the repair it heals through.
type healer interface {
	RunScrubPass(cloud int) error
	ScrubStatus(cloud int) (*protocol.ScrubReport, error)
	plainPaths() (map[string]string, error)
	Repair(path string, cloud int) (*RepairStats, error)
}

// healConcurrency bounds parallel file repairs per cloud per round.
const healConcurrency = 2

// RepairOutcome reports one file repair a round attempted.
type RepairOutcome struct {
	Cloud         int
	Path          string
	SharesRebuilt int64
	// BytesReuploaded counts the rebuilt share bytes sent to the repaired
	// cloud, none it already held; BytesDownloaded counts the read-side
	// egress the rebuild pulled from the healthy clouds. Their ratio is the
	// repair's read amplification.
	BytesReuploaded int64
	BytesDownloaded int64
	Err             error
}

// HealRound reports one heal round.
type HealRound struct {
	CloudsPolled int
	CloudsBusy   int
	CloudsDown   int
	SkippedFiles int // encoded paths the user's listing does not name
	Outcomes     []RepairOutcome
}

// Heal runs one heal round over every cloud, the repair half of the
// scrub subsystem. On each cloud it runs a synchronous scrub pass, polls
// the cloud's report (MsgScrubStatus), and — unless the cloud is serving
// client traffic, reporting any in-flight bytes — heals every affected
// file of c's user with one Repair call, which asks the cloud what it
// holds of the file and rebuilds the rest: damaged shares, or the recipe
// and every share the cloud lacks when the recipe itself was lost.
// Repairs stream window-by-window, so a round holds O(window) memory per
// in-flight file regardless of file size. Unreachable clouds are counted,
// not fatal: the deployment heals whatever is reachable, and a file's
// repair error stays in its outcome.
//
// A cloud reports only the files of the session's own user, named by
// their server-side paths. A path dispersed with Options.EncodePaths
// (§4.3) reaches the report as its opaque "x1:" name; the round decodes
// every such name through one ListFiles, the first time it meets one, and
// repairs the plaintext path. A name that listing does not resolve — a
// client without EncodePaths cannot decode any — is skipped and counted,
// never guessed.
func (c *Client) Heal() *HealRound { return heal(c, c.opts.N) }

// heal runs a heal round over clouds 0..n-1 of c.
func heal(c healer, n int) *HealRound {
	r := &HealRound{}
	var plain map[string]string // path ID -> plaintext path, listed once
	listed := false
	resolve := func(name string) (string, bool) {
		if !strings.HasPrefix(name, pathPrefix) {
			return name, true
		}
		if !listed {
			plain, _ = c.plainPaths() // on error nothing resolves
			listed = true
		}
		part, err := parseEncodedPath(name)
		if err != nil {
			return "", false
		}
		path, ok := plain[part.id]
		return path, ok
	}
	for cloud := 0; cloud < n; cloud++ {
		if err := c.RunScrubPass(cloud); err != nil {
			r.CloudsDown++
			continue
		}
		rep, err := c.ScrubStatus(cloud)
		if err != nil {
			r.CloudsDown++
			continue
		}
		r.CloudsPolled++
		if len(rep.Affected) == 0 {
			continue
		}
		if rep.InflightBytes > 0 {
			// The cloud is serving client traffic; repair re-dispersal
			// waits for an idle round.
			r.CloudsBusy++
			continue
		}

		var mu sync.Mutex
		var wg sync.WaitGroup
		sem := make(chan struct{}, healConcurrency)
		for i := range rep.Affected {
			path, ok := resolve(rep.Affected[i].Path)
			if !ok {
				r.SkippedFiles++
				continue
			}
			wg.Add(1)
			sem <- struct{}{}
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				st, err := c.Repair(path, cloud)
				out := RepairOutcome{Cloud: cloud, Path: path, Err: err}
				if st != nil {
					out.SharesRebuilt = st.SharesRebuilt
					out.BytesReuploaded = st.BytesReuploads
					out.BytesDownloaded = st.Restore.DownloadedBytes
				}
				mu.Lock()
				r.Outcomes = append(r.Outcomes, out)
				mu.Unlock()
			}()
		}
		wg.Wait()
	}
	return r
}
