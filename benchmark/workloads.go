package main

import (
	"fmt"

	"cdstore/internal/workload"
)

// sizing holds every size a workload is built from. fullSizing is what
// the benchmark measures; the tests run the same code at toySizing.
//
// ISSUE 12 sized the workloads for 30-45 s of timed phases each. The
// driver's cap (4 + 22 x 4 runs, set-up and two builds included, inside
// 3420 s) leaves about 35 s per run, so one run is several independent
// rounds of roughly 3 s of timed phases, each on a fresh cluster, and
// the reported value is the median over the rounds. The proportions
// between the workloads are the issue's.
type sizing struct {
	uniqueFiles     int
	uniqueFileBytes int64

	fslUsers, fslWeeks, fslChunks int

	vmImages, vmWeeks, vmChunks int

	degUsers, degFiles int
	degFileBytes       int64

	// warmBytes is the untimed warm-up backup+restore inside set-up.
	warmBytes int64
	// replayBytes caps the sample of round-0 inputs the layer replay
	// pushes through each layer.
	replayBytes int64
}

var fullSizing = sizing{
	// 216 MiB is 72 MiB of shares per cloud, just past the server's
	// 64 MB container cache, so unique_cold restores read the backend.
	uniqueFiles: 3, uniqueFileBytes: 72 << 20,
	// Two users keep both positions of the closed loop busy; 5000
	// chunks a week is 39 MiB per session, so the 64-SSTable flush every
	// direct-connection Bye triggers weighs about what it does at the
	// issue's 58 MiB per session.
	fslUsers: 2, fslWeeks: 4, fslChunks: 5000,
	vmImages: 16, vmWeeks: 3, vmChunks: 1600,
	degUsers: 2, degFiles: 3, degFileBytes: 24 << 20,
	warmBytes:   16 << 20,
	replayBytes: 32 << 20,
}

var toySizing = sizing{
	uniqueFiles: 2, uniqueFileBytes: 1 << 20,
	fslUsers: 2, fslWeeks: 2, fslChunks: 60,
	vmImages: 3, vmWeeks: 2, vmChunks: 100,
	degUsers: 2, degFiles: 2, degFileBytes: 1 << 20,
	warmBytes:   256 << 10,
	replayBytes: 512 << 10,
}

// backupSpec is one backup: a streamed file (segs, through
// Client.Backup and its chunker) or a trace backup (trace, through
// Client.BackupStream with the trace's own boundaries). want is filled
// in by the backup and checked by every later restore.
type backupSpec struct {
	user  uint64
	path  string
	segs  []segment
	trace *workload.Backup
	want  digest
}

// plan is one round's inputs: waves run one after another (a week of a
// trace must be stored before the next week dedups against it), and the
// specs of one user inside a wave share one client session.
type plan struct {
	waves [][]*backupSpec
}

func (p *plan) all() []*backupSpec {
	var out []*backupSpec
	for _, w := range p.waves {
		out = append(out, w...)
	}
	return out
}

// workloadSpec describes one workload. users is the closed loop's
// width: at most that many users have an operation in flight, and a
// user starts its next operation only when the previous one returned.
type workloadSpec struct {
	name string
	why  string
	// users is the number of concurrent users (<= nproc of the 2-core
	// reference box).
	users int
	// gateway routes every session through a per-cloud gateway.Gateway
	// with two upstream connections, so the server runs its mux dispatch.
	gateway bool
	// chunking is client.Options.Chunking ("" = the default Rabin).
	chunking string
	// degraded fails cloud 0 before the restore phase, so restores
	// decode from parity.
	degraded bool
	plan     func(seed int64, round int, sz sizing) *plan
}

var workloads = []workloadSpec{
	{
		name:  "unique_cold",
		why:   "one user streams duplicate-free files through the Rabin chunker: every byte is chunked, encoded, sent, stored and fetched, no index hit helps",
		users: 1,
		plan: func(seed int64, round int, sz sizing) *plan {
			var wave []*backupSpec
			for f := 0; f < sz.uniqueFiles; f++ {
				wave = append(wave, &backupSpec{
					user: 1,
					path: fmt.Sprintf("/cold/file%d", f),
					segs: []segment{{seed: mix(seed, uint64(round), 1, uint64(f)), n: sz.uniqueFileBytes}},
				})
			}
			return &plan{waves: [][]*backupSpec{wave}}
		},
	},
	{
		name:  "fsl_weekly",
		why:   "weekly home-directory backups with trace-given boundaries: after week 1 most shares are intra-user duplicates, so encode, fingerprint and dedup-query round trips dominate; chunker bypassed",
		users: 2,
		plan: func(seed int64, round int, sz sizing) *plan {
			weeks := workload.GenerateFSL(workload.FSLConfig{
				Users: sz.fslUsers, Weeks: sz.fslWeeks, ChunksPerUser: sz.fslChunks,
				Seed: int64(mix(seed, uint64(round))),
			})
			return tracePlan(weeks, "fsl")
		},
	},
	{
		name:    "vm_fleet",
		why:     "many 4 KB-chunk VM images cloned from one master, every session through a 2-connection gateway: shares cross the wire but end as inter-user dedup hits; per-secret and per-session costs dominate",
		users:   2,
		gateway: true,
		plan: func(seed int64, round int, sz sizing) *plan {
			weeks := workload.GenerateVM(workload.VMConfig{
				Users: sz.vmImages, Weeks: sz.vmWeeks, ChunksPerImage: sz.vmChunks,
				Seed: int64(mix(seed, uint64(round))),
			})
			return tracePlan(weeks, "vm")
		},
	},
	{
		name:     "degraded_repair",
		why:      "FastCDC backups, then cloud 0 fails: restores decode from parity, the cloud is replaced and every file rebuilt; reads beside writes on the same engine and codec",
		users:    2,
		chunking: "fastcdc",
		degraded: true,
		plan: func(seed int64, round int, sz sizing) *plan {
			// File j of a user repeats the first quarter of file j-1, so
			// a quarter of every later file is an intra-user duplicate.
			var wave []*backupSpec
			quarter := sz.degFileBytes / 4
			for f := 0; f < sz.degFiles; f++ {
				for u := 1; u <= sz.degUsers; u++ {
					wave = append(wave, &backupSpec{
						user: uint64(u),
						path: fmt.Sprintf("/deg/u%d/file%d", u, f),
						segs: []segment{
							{seed: mix(seed, uint64(round), uint64(u), 1<<32), n: quarter},
							{seed: mix(seed, uint64(round), uint64(u), uint64(f)), n: sz.degFileBytes - quarter},
						},
					})
				}
			}
			return &plan{waves: [][]*backupSpec{wave}}
		},
	},
}

// tracePlan turns backups[week][user] into one wave per week.
func tracePlan(weeks [][]workload.Backup, prefix string) *plan {
	p := &plan{}
	for w := range weeks {
		var wave []*backupSpec
		for u := range weeks[w] {
			b := &weeks[w][u]
			wave = append(wave, &backupSpec{
				user:  uint64(b.User + 1),
				path:  fmt.Sprintf("/%s/u%d/wk%d", prefix, b.User, b.Week),
				trace: b,
			})
		}
		p.waves = append(p.waves, wave)
	}
	return p
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
