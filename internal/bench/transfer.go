package bench

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"cdstore/internal/cloud"
	"cdstore/internal/storage"
	"cdstore/internal/workload"
)

// Testbed selects the §5.1 environment for transfer experiments.
type Testbed int

// Testbeds.
const (
	// TestbedUnshaped runs at machine speed (CPU-bound ceiling).
	TestbedUnshaped Testbed = iota
	// TestbedLAN emulates the 1Gb/s LAN (§5.1(ii)).
	TestbedLAN
	// TestbedCloud emulates the four commercial clouds of Table 2
	// (§5.1(iii)).
	TestbedCloud
)

func (t Testbed) String() string {
	switch t {
	case TestbedLAN:
		return "LAN"
	case TestbedCloud:
		return "Cloud"
	default:
		return "Unshaped"
	}
}

// profilesFor returns the per-cloud link profiles and the client NIC for
// a testbed.
func profilesFor(t Testbed, n int) ([]cloud.LinkProfile, *cloud.ClientNIC) {
	switch t {
	case TestbedLAN:
		profiles := make([]cloud.LinkProfile, n)
		for i := range profiles {
			profiles[i] = cloud.LANProfile()
			profiles[i].Name = fmt.Sprintf("LAN-%d", i)
		}
		return profiles, cloud.LANClientNIC()
	case TestbedCloud:
		base := cloud.CloudProfiles()
		profiles := make([]cloud.LinkProfile, n)
		for i := range profiles {
			profiles[i] = base[i%len(base)]
		}
		// The client in Hong Kong has ample local bandwidth; the WAN
		// paths are the bottleneck.
		return profiles, nil
	default:
		return nil, nil
	}
}

// ------------------------------------------------------------------ Table 2

// Table2Row is one cloud's measured speeds (mean and standard deviation
// over runs), mirroring Table 2's methodology: 2GB of unique data moved
// in 4MB units.
type Table2Row struct {
	Cloud    string
	UpMean   float64
	UpStd    float64
	DownMean float64
	DownStd  float64
}

// CloudSpeeds measures raw upload/download speeds of each simulated
// cloud path by moving dataMB in 4MB units over a shaped in-process
// connection, repeated runs times.
func CloudSpeeds(dataMB, runs int) ([]Table2Row, error) {
	if runs <= 0 {
		runs = 3
	}
	profiles := cloud.CloudProfiles()
	rows := make([]Table2Row, 0, len(profiles))
	for _, p := range profiles {
		var ups, downs []float64
		for r := 0; r < runs; r++ {
			up, err := rawTransferMBps(dataMB, storage.NewLimiter(p.UploadBps))
			if err != nil {
				return nil, err
			}
			down, err := rawTransferMBps(dataMB, storage.NewLimiter(p.DownloadBps))
			if err != nil {
				return nil, err
			}
			ups = append(ups, up)
			downs = append(downs, down)
		}
		upM, upS := meanStd(ups)
		downM, downS := meanStd(downs)
		rows = append(rows, Table2Row{Cloud: p.Name, UpMean: upM, UpStd: upS, DownMean: downM, DownStd: downS})
	}
	return rows, nil
}

// rawTransferMBps moves dataMB through a shaped in-process pipe in 4MB
// units and returns the observed MB/s.
func rawTransferMBps(dataMB int, lim *storage.Limiter) (float64, error) {
	conn, sink := net.Pipe()
	defer conn.Close()
	done := make(chan error, 1)
	total := dataMB << 20
	go func() {
		_, err := io.CopyN(io.Discard, sink, int64(total))
		sink.Close()
		done <- err
	}()
	shaped := cloud.Shape(conn, lim, nil, 0)
	unit := make([]byte, 4<<20)
	// Warmup: drain the token bucket's initial burst so the measurement
	// reflects the sustained rate, not the burst allowance.
	warm := len(unit)
	if warm > total/2 {
		warm = total / 2
	}
	if warm > 0 {
		if _, err := shaped.Write(unit[:warm]); err != nil {
			return 0, err
		}
	}
	measured := total - warm
	start := time.Now()
	sent := 0
	for sent < measured {
		n := len(unit)
		if measured-sent < n {
			n = measured - sent
		}
		if _, err := shaped.Write(unit[:n]); err != nil {
			return 0, err
		}
		sent += n
	}
	elapsed := time.Since(start)
	if err := <-done; err != nil {
		return 0, err
	}
	return float64(measured) / (1 << 20) / elapsed.Seconds(), nil
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std
}

// -------------------------------------------------------------- Figure 7(a)

// TransferResult is a single-client baseline measurement (Figure 7(a)).
type TransferResult struct {
	Testbed          string
	UploadUniqueMBps float64
	UploadDupMBps    float64
	DownloadMBps     float64
}

// BaselineTransfer reproduces Figure 7(a): a single client uploads
// dataMB of unique data, re-uploads the identical data (all intra-user
// duplicates), then downloads it, on the chosen testbed with
// (n,k) = (4,3).
func BaselineTransfer(testbed Testbed, dataMB int) (*TransferResult, error) {
	profiles, nic := profilesFor(testbed, 4)
	cl, err := cloud.NewCluster(cloud.Config{N: 4, K: 3, Profiles: profiles})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	c, err := cl.Connect(1, nic)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	data := workload.UniqueData(71, dataMB<<20)
	res := &TransferResult{Testbed: testbed.String()}

	start := time.Now()
	if _, err := c.Backup("/bench/unique.bin", bytes.NewReader(data)); err != nil {
		return nil, err
	}
	res.UploadUniqueMBps = float64(dataMB) / time.Since(start).Seconds()

	start = time.Now()
	if _, err := c.Backup("/bench/dup.bin", bytes.NewReader(data)); err != nil {
		return nil, err
	}
	res.UploadDupMBps = float64(dataMB) / time.Since(start).Seconds()

	start = time.Now()
	if _, err := c.Restore("/bench/unique.bin", io.Discard); err != nil {
		return nil, err
	}
	res.DownloadMBps = float64(dataMB) / time.Since(start).Seconds()
	return res, nil
}

// -------------------------------------------------------------- Figure 7(b)

// TraceTransferResult is the trace-driven measurement (Figure 7(b)).
type TraceTransferResult struct {
	Testbed         string
	UploadFirstMBps float64
	UploadSubsqMBps float64
	DownloadMBps    float64
}

// TraceDrivenTransfer reproduces Figure 7(b): an FSL-like user uploads
// weekly backups (week 1 = "first", later weeks = "subsequent"), then
// downloads them. Chunk content is materialized from fingerprints as in
// §5.5.
func TraceDrivenTransfer(testbed Testbed, weeks, chunksPerUser int) (*TraceTransferResult, error) {
	if weeks < 2 {
		weeks = 2
	}
	trace := workload.GenerateFSL(workload.FSLConfig{Users: 1, Weeks: weeks, ChunksPerUser: chunksPerUser, Seed: 72})
	profiles, nic := profilesFor(testbed, 4)
	cl, err := cloud.NewCluster(cloud.Config{N: 4, K: 3, Profiles: profiles})
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	c, err := cl.Connect(1, nic)
	if err != nil {
		return nil, err
	}
	defer c.Close()

	res := &TraceTransferResult{Testbed: testbed.String()}
	var firstBytes, subsqBytes float64
	var firstTime, subsqTime time.Duration
	var totalBytes float64
	for w := 0; w < weeks; w++ {
		b := trace[w][0]
		size := float64(workload.TotalBytes(b)) / (1 << 20)
		start := time.Now()
		// §5.5 methodology: each trace chunk is a secret; no re-chunking.
		if _, err := c.BackupStream(fmt.Sprintf("/trace/week%d.tar", w), workload.NewChunkIter(b)); err != nil {
			return nil, err
		}
		el := time.Since(start)
		if w == 0 {
			firstBytes += size
			firstTime += el
		} else {
			subsqBytes += size
			subsqTime += el
		}
		totalBytes += size
	}
	start := time.Now()
	for w := 0; w < weeks; w++ {
		if _, err := c.Restore(fmt.Sprintf("/trace/week%d.tar", w), io.Discard); err != nil {
			return nil, err
		}
	}
	res.DownloadMBps = totalBytes / time.Since(start).Seconds()
	res.UploadFirstMBps = firstBytes / firstTime.Seconds()
	res.UploadSubsqMBps = subsqBytes / subsqTime.Seconds()
	return res, nil
}

// ------------------------------------------------------------------ Figure 8

// Fig8Row is one multi-client aggregate upload measurement.
type Fig8Row struct {
	Clients       int
	UniqueAggMBps float64
	DupAggMBps    float64
}

// AggregateUpload reproduces Figure 8: numClients CDStore clients upload
// concurrently (each dataMB of unique data, then the same data again) to
// four servers; the aggregate speed is total bytes over the time until
// the last client finishes. The LAN testbed shape applies when shaped is
// true.
func AggregateUpload(clientCounts []int, dataMB int, shaped bool) ([]Fig8Row, error) {
	if len(clientCounts) == 0 {
		clientCounts = []int{1, 2, 4, 8}
	}
	var rows []Fig8Row
	for _, numClients := range clientCounts {
		var profiles []cloud.LinkProfile
		if shaped {
			profiles, _ = profilesFor(TestbedLAN, 4)
		}
		cl, err := cloud.NewCluster(cloud.Config{N: 4, K: 3, Profiles: profiles})
		if err != nil {
			return nil, err
		}
		row := Fig8Row{Clients: numClients}
		for phase, label := range []string{"unique", "dup"} {
			var wg sync.WaitGroup
			errCh := make(chan error, numClients)
			start := time.Now()
			for u := 0; u < numClients; u++ {
				wg.Add(1)
				go func(u int) {
					defer wg.Done()
					var nic *cloud.ClientNIC
					if shaped {
						nic = cloud.LANClientNIC()
					}
					c, err := cl.Connect(uint64(u+1), nic)
					if err != nil {
						errCh <- err
						return
					}
					defer c.Close()
					// Unique per (client, phase-unique); identical to the
					// first upload in the dup phase.
					data := workload.UniqueData(int64(1000+u), dataMB<<20)
					if _, err := c.Backup(fmt.Sprintf("/agg/%s-u%d.bin", label, u), bytes.NewReader(data)); err != nil {
						errCh <- err
					}
				}(u)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				if err != nil {
					cl.Close()
					return nil, err
				}
			}
			agg := float64(dataMB*numClients) / time.Since(start).Seconds()
			if phase == 0 {
				row.UniqueAggMBps = agg
			} else {
				row.DupAggMBps = agg
			}
		}
		rows = append(rows, row)
		cl.Close()
	}
	return rows, nil
}
