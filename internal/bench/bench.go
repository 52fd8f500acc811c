// Package bench contains the experiment drivers that regenerate every
// table and figure of the CDStore paper's evaluation (§5). Each driver
// returns structured rows; cmd/cdbench renders them and bench_test.go
// wraps them in testing.B benchmarks. Data sizes are parameters so tests
// run scaled down while the CLI reproduces fuller scale.
//
// It also holds the paper's comparison points, which nothing else runs:
// the Scheme interface, the Table 1 baselines (SSSS, IDA, RSSS, SSMS,
// AONT-RS, with Rivest's package transform) and CAONT-RS-Rivest, each as
// plain Split/Combine. The client runs internal/core's CAONT-RS alone,
// and a closure test at the module root keeps this package out of the
// binaries.
package bench

import (
	"fmt"
	"io"
	"sync"
	"time"

	"cdstore/internal/chunker"
	"cdstore/internal/core"
	"cdstore/internal/cost"
	"cdstore/internal/dedup"
	"cdstore/internal/workload"
)

// ---------------------------------------------------------------- Table 1

// Table1Row compares one secret-sharing algorithm (Table 1).
type Table1Row struct {
	Name            string
	R               int     // confidentiality degree
	AnalyticBlowup  float64 // Table 1 formula
	MeasuredBlowup  float64 // from actual Split output
	ShareSizeBytes  int
	SecretSizeBytes int
}

// Table1 evaluates every algorithm of Table 1 (plus the convergent
// variants) at (n, k) for a secretSize-byte secret.
func Table1(n, k, secretSize int) ([]Table1Row, error) {
	const keySize = 32
	ssec := float64(secretSize)
	type entry struct {
		scheme   Scheme
		analytic float64
	}
	ssss, err := NewSSSS(n, k)
	if err != nil {
		return nil, err
	}
	ida, err := NewIDA(n, k)
	if err != nil {
		return nil, err
	}
	rsss, err := NewRSSS(n, k, (k-1)/2)
	if err != nil {
		return nil, err
	}
	ssms, err := NewSSMS(n, k)
	if err != nil {
		return nil, err
	}
	aontrs, err := NewAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	caontrs, err := core.NewCAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	caontriv, err := NewCAONTRSRivest(n, k)
	if err != nil {
		return nil, err
	}
	nf, kf := float64(n), float64(k)
	entries := []entry{
		{ssss, nf},
		{ida, nf / kf},
		{rsss, nf / (kf - float64((k-1)/2))},
		{ssms, nf/kf + nf*keySize/ssec},
		{aontrs, nf/kf + nf/kf*keySize/ssec},
		{caontrs, nf/kf + nf/kf*keySize/ssec},
		{caontriv, nf/kf + nf/kf*keySize/ssec},
	}
	secret := workload.UniqueData(1, secretSize)
	rows := make([]Table1Row, 0, len(entries))
	for _, e := range entries {
		shares, err := e.scheme.Split(secret)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.scheme.Name(), err)
		}
		total := 0
		for _, s := range shares {
			total += len(s)
		}
		rows = append(rows, Table1Row{
			Name:            e.scheme.Name(),
			R:               e.scheme.R(),
			AnalyticBlowup:  e.analytic,
			MeasuredBlowup:  float64(total) / ssec,
			ShareSizeBytes:  len(shares[0]),
			SecretSizeBytes: secretSize,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------- Figure 5(a/b)

// EncRow is one encoding-speed measurement.
type EncRow struct {
	Scheme  string
	Threads int
	N, K    int
	MBps    float64
}

// encodeSchemes builds the three schemes Figure 5 compares.
func encodeSchemes(n, k int) ([]Scheme, error) {
	caontrs, err := core.NewCAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	aontrs, err := NewAONTRS(n, k)
	if err != nil {
		return nil, err
	}
	rivest, err := NewCAONTRSRivest(n, k)
	if err != nil {
		return nil, err
	}
	return []Scheme{caontrs, aontrs, rivest}, nil
}

// chunkRandomData produces variable-size secrets from dataMB of random
// in-memory data (the §5.3 methodology: 2GB of random data, 8KB average
// chunks, I/O excluded).
func chunkRandomData(dataMB int, seed int64) ([][]byte, error) {
	data := workload.UniqueData(seed, dataMB<<20)
	chunks, err := chunker.ChunkAll(chunker.NewRabin(newSliceReader(data)))
	if err != nil {
		return nil, err
	}
	secrets := make([][]byte, len(chunks))
	for i, c := range chunks {
		secrets[i] = c.Data
	}
	return secrets, nil
}

// encodeAll pushes every secret through scheme.Split on a worker pool and
// returns the wall-clock duration.
func encodeAll(scheme Scheme, secrets [][]byte, threads int) (time.Duration, error) {
	jobs := make(chan []byte, 2*threads)
	errCh := make(chan error, threads)
	var wg sync.WaitGroup
	start := time.Now()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if _, err := scheme.Split(s); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	for _, s := range secrets {
		jobs <- s
	}
	close(jobs)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}

// EncodingSpeedVsThreads reproduces Figure 5(a): encoding speed of
// CAONT-RS vs AONT-RS vs CAONT-RS-Rivest with 1..maxThreads threads at
// (n,k) = (4,3).
func EncodingSpeedVsThreads(dataMB, maxThreads int) ([]EncRow, error) {
	secrets, err := chunkRandomData(dataMB, 53)
	if err != nil {
		return nil, err
	}
	schemes, err := encodeSchemes(4, 3)
	if err != nil {
		return nil, err
	}
	var rows []EncRow
	for _, scheme := range schemes {
		for threads := 1; threads <= maxThreads; threads++ {
			d, err := encodeAll(scheme, secrets, threads)
			if err != nil {
				return nil, err
			}
			rows = append(rows, EncRow{
				Scheme:  scheme.Name(),
				Threads: threads,
				N:       4, K: 3,
				MBps: float64(dataMB) / d.Seconds(),
			})
		}
	}
	return rows, nil
}

// EncodingSpeedVsN reproduces Figure 5(b): encoding speed versus the
// number of clouds n (k the largest integer with k/n <= 3/4), two
// encoding threads.
func EncodingSpeedVsN(dataMB, threads int, ns []int) ([]EncRow, error) {
	if len(ns) == 0 {
		ns = []int{4, 8, 12, 16, 20}
	}
	secrets, err := chunkRandomData(dataMB, 54)
	if err != nil {
		return nil, err
	}
	var rows []EncRow
	for _, n := range ns {
		k := n * 3 / 4
		schemes, err := encodeSchemes(n, k)
		if err != nil {
			return nil, err
		}
		for _, scheme := range schemes {
			d, err := encodeAll(scheme, secrets, threads)
			if err != nil {
				return nil, err
			}
			rows = append(rows, EncRow{
				Scheme:  scheme.Name(),
				Threads: threads,
				N:       n, K: k,
				MBps: float64(dataMB) / d.Seconds(),
			})
		}
	}
	return rows, nil
}

// CombinedChunkEncodeSpeed measures chunking+encoding together (§5.3's
// last experiment: combined speed drops ~16% below encode-only).
func CombinedChunkEncodeSpeed(dataMB, threads int) (encodeOnly, combined float64, err error) {
	secrets, err := chunkRandomData(dataMB, 55)
	if err != nil {
		return 0, 0, err
	}
	scheme, err := core.NewCAONTRS(4, 3)
	if err != nil {
		return 0, 0, err
	}
	d, err := encodeAll(scheme, secrets, threads)
	if err != nil {
		return 0, 0, err
	}
	encodeOnly = float64(dataMB) / d.Seconds()

	data := workload.UniqueData(56, dataMB<<20)
	start := time.Now()
	ck := chunker.NewRabin(newSliceReader(data))
	jobs := make(chan []byte, 2*threads)
	var wg sync.WaitGroup
	var encErr error
	var once sync.Once
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range jobs {
				if _, err := scheme.Split(s); err != nil {
					once.Do(func() { encErr = err })
					return
				}
			}
		}()
	}
	for {
		c, cerr := ck.Next()
		if cerr != nil {
			break
		}
		jobs <- c.Data
	}
	close(jobs)
	wg.Wait()
	if encErr != nil {
		return 0, 0, encErr
	}
	combined = float64(dataMB) / time.Since(start).Seconds()
	return encodeOnly, combined, nil
}

// ---------------------------------------------------------------- Figure 6

// Fig6Row is one dataset-week of deduplication results.
type Fig6Row struct {
	Dataset string
	Week    int
	// Weekly savings (Figure 6(a)).
	IntraSaving float64
	InterSaving float64
	// Cumulative volumes in bytes (Figure 6(b)).
	CumLogicalData    int64
	CumLogicalShares  int64
	CumTransferred    int64
	CumPhysicalShares int64
}

// DedupEfficiency reproduces Figure 6 for both synthetic datasets at
// (n, k).
func DedupEfficiency(fsl workload.FSLConfig, vm workload.VMConfig, n, k int) ([]Fig6Row, error) {
	var rows []Fig6Row
	run := func(name string, weeks [][]workload.Backup) {
		sim := dedup.NewSimulator(n, dedup.CAONTRSSizer(k))
		var cum dedup.Stats
		for w := range weeks {
			var weekly dedup.Stats
			for _, b := range weeks[w] {
				weekly.Add(sim.Upload(b.User, b.Chunks))
			}
			cum.Add(weekly)
			rows = append(rows, Fig6Row{
				Dataset:           name,
				Week:              w + 1,
				IntraSaving:       weekly.IntraSaving(),
				InterSaving:       weekly.InterSaving(),
				CumLogicalData:    cum.LogicalData,
				CumLogicalShares:  cum.LogicalShares,
				CumTransferred:    cum.TransferredShares,
				CumPhysicalShares: cum.PhysicalShares,
			})
		}
	}
	run("FSL", workload.GenerateFSL(fsl))
	run("VM", workload.GenerateVM(vm))
	return rows, nil
}

// ---------------------------------------------------------------- Figure 9

// CostRow is one point of Figure 9.
type CostRow struct {
	WeeklyTB       float64
	DedupRatio     float64
	SavingVsAONTRS float64
	SavingVsSingle float64
	CDStoreUSD     float64
	AONTRSUSD      float64
	SingleUSD      float64
	Instance       string
}

// CostVsWeeklySize reproduces Figure 9(a): savings versus weekly backup
// size at a fixed dedup ratio.
func CostVsWeeklySize(sizesTB []float64, ratio float64) ([]CostRow, error) {
	if len(sizesTB) == 0 {
		sizesTB = []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256}
	}
	rows := make([]CostRow, 0, len(sizesTB))
	for _, tb := range sizesTB {
		r, err := cost.Analyze(cost.Params{WeeklyBackupGB: tb * cost.TB, DedupRatio: ratio})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CostRow{
			WeeklyTB:       tb,
			DedupRatio:     ratio,
			SavingVsAONTRS: r.SavingVsAONTRS,
			SavingVsSingle: r.SavingVsSingle,
			CDStoreUSD:     r.CDStoreTotalUSD,
			AONTRSUSD:      r.AONTRSUSD,
			SingleUSD:      r.SingleCloudUSD,
			Instance:       r.InstanceName,
		})
	}
	return rows, nil
}

// CostVsDedupRatio reproduces Figure 9(b): savings versus dedup ratio at
// a fixed weekly size.
func CostVsDedupRatio(ratios []float64, weeklyTB float64) ([]CostRow, error) {
	if len(ratios) == 0 {
		ratios = []float64{1, 2, 5, 10, 20, 30, 40, 50}
	}
	rows := make([]CostRow, 0, len(ratios))
	for _, ratio := range ratios {
		r, err := cost.Analyze(cost.Params{WeeklyBackupGB: weeklyTB * cost.TB, DedupRatio: ratio})
		if err != nil {
			return nil, err
		}
		rows = append(rows, CostRow{
			WeeklyTB:       weeklyTB,
			DedupRatio:     ratio,
			SavingVsAONTRS: r.SavingVsAONTRS,
			SavingVsSingle: r.SavingVsSingle,
			CDStoreUSD:     r.CDStoreTotalUSD,
			AONTRSUSD:      r.AONTRSUSD,
			SingleUSD:      r.SingleCloudUSD,
			Instance:       r.InstanceName,
		})
	}
	return rows, nil
}

// sliceReader wraps a byte slice as an io.Reader without copying.
type sliceReader struct {
	data []byte
	off  int
}

func newSliceReader(data []byte) *sliceReader { return &sliceReader{data: data} }

func (r *sliceReader) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}
