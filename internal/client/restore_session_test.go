package client

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"cdstore/internal/secretshare"
)

// servedBy returns every cloud's count of shares served so far.
func (cl pipeCluster) servedBy() []uint64 {
	out := make([]uint64, len(cl))
	for i, pc := range cl {
		out[i] = pc.srv.Stats().SharesServed
	}
	return out
}

// restoreOne restores one file through c, compares the bytes and checks
// that the stats account for every secret.
func restoreOne(t *testing.T, c *Client, f sessionFile) *RestoreStats {
	t.Helper()
	var out bytes.Buffer
	st, err := c.Restore(f.path, &out)
	if err != nil {
		t.Fatalf("restore %s: %v", f.path, err)
	}
	if !bytes.Equal(out.Bytes(), chunksOf(f.ids...)) {
		t.Fatalf("restore %s is not byte-identical", f.path)
	}
	if st.Secrets != int64(len(f.ids)) || st.SecretsReused+st.MemoRefetches > st.Secrets {
		t.Fatalf("restore %s: %+v does not account for %d secrets", f.path, st, len(f.ids))
	}
	return st
}

// checkMemoHolds fails unless every entry of c's memo is one of the
// chunks the files were built from, the memo is within its budget, and —
// no restore running — no entry is pinned: every one is on the recency
// list, where eviction can reach it.
func checkMemoHolds(t *testing.T, c *Client, files []sessionFile) {
	t.Helper()
	chunks := make(map[string]bool)
	for _, f := range files {
		for _, id := range f.ids {
			chunks[string(chunksOf(id))] = true
		}
	}
	m := c.secrets
	m.mu.Lock()
	defer m.mu.Unlock()
	var used int64
	for _, e := range m.rows {
		if !chunks[string(e.secret)] {
			t.Error("the memo holds bytes that are no secret of any file")
		}
		if e.pins != 0 {
			t.Errorf("an entry holds %d pins after every restore returned", e.pins)
		}
		used += int64(len(e.secret))
	}
	if used != m.used || used > m.capacity || m.pinned != 0 {
		t.Errorf("memo holds %d bytes, books %d (%d pinned), budget %d", used, m.used, m.pinned, m.capacity)
	}
	listed := 0
	for e := m.lru.next; e != &m.lru; e = e.next {
		listed++
	}
	if listed != len(m.rows) {
		t.Errorf("%d of %d entries on the recency list", listed, len(m.rows))
	}
}

// failWriter fails the write that takes it past after bytes.
type failWriter struct{ after int }

func (f *failWriter) Write(p []byte) (int, error) {
	if f.after -= len(p); f.after < 0 {
		return 0, errors.New("sink failed")
	}
	return len(p), nil
}

// TestRestoreSessionDecodesEachRowOnce: three files sharing most of their
// rows, restored on one session. Every primary cloud serves each distinct
// row's share once for the whole session, the spare nothing, and every
// other secret is written from the memo.
func TestRestoreSessionDecodesEachRowOnce(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 8}
	files := weeklyFiles()
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	shareSize := int64(rc.scheme.ShareSize(sessionChunk))
	before := cl.servedBy()
	distinct := 0
	for _, f := range files {
		st := restoreOne(t, rc, f)
		fresh, all := int64(f.fresh), int64(len(f.ids))
		if st.SecretsReused != all-fresh || st.MemoRefetches != 0 {
			t.Errorf("%s: %d reused, %d refetched; want %d, 0", f.path, st.SecretsReused, st.MemoRefetches, all-fresh)
		}
		if want := 3 * fresh * shareSize; st.DownloadedBytes != want {
			t.Errorf("%s: downloaded %d bytes, want %d (k shares of each new row)", f.path, st.DownloadedBytes, want)
		}
		if want := 3 * (all - fresh) * shareSize; st.CacheHitBytes != want {
			t.Errorf("%s: %d share bytes not downloaded, want %d", f.path, st.CacheHitBytes, want)
		}
		distinct += f.fresh
	}
	after := cl.servedBy()
	for i := range cl {
		want := uint64(distinct)
		if i == len(cl)-1 {
			want = 0 // the spare
		}
		if got := after[i] - before[i]; got != want {
			t.Errorf("cloud %d served %d shares for %d distinct rows, want %d", i, got, distinct, want)
		}
	}
	checkMemoHolds(t, rc, files)
}

// TestRestoreMemoEvictionStaysCorrect tightens the memo to three secrets,
// less than a window. A file that repeats itself plans its second half as
// placeholders, but only the rows that were donated before the memo filled
// with pinned entries are still there when the writer reaches them; the
// others are fetched and decoded after all, and the bytes are the same.
func TestRestoreMemoEvictionStaysCorrect(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 8}
	twice := sessionFile{path: "/twice", ids: append(idRange(0, 8), idRange(0, 8)...)}
	files := append(weeklyFiles(), twice)
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	rc.secrets.capacity = 3 * sessionChunk
	for _, f := range files[:3] {
		restoreOne(t, rc, f)
		checkMemoHolds(t, rc, files)
	}
	// On a fresh session ids 0..7 are decoded and donated in order, each
	// pinned by its one use left: 0, 1 and 2 fill the memo, and 3..7 find
	// nothing they may evict and are not kept. The second half reads 0, 1
	// and 2 from the memo, releasing them, and refetches 3..7, each evicting
	// the least recently used of what is unpinned by then.
	rc = cl.connect(t, opts)
	rc.secrets.capacity = 3 * sessionChunk
	st := restoreOne(t, rc, twice)
	if st.MemoRefetches != 5 || st.SecretsReused != 3 {
		t.Fatalf("%d refetches, %d reused; want 5, 3", st.MemoRefetches, st.SecretsReused)
	}
	shareSize := int64(rc.scheme.ShareSize(sessionChunk))
	if st.DownloadedBytes != 13*3*shareSize || st.CacheHitBytes != 3*3*shareSize {
		t.Fatalf("downloaded %d bytes with %d not downloaded; want %d, %d",
			st.DownloadedBytes, st.CacheHitBytes, 13*3*shareSize, 3*3*shareSize)
	}
	checkMemoHolds(t, rc, files)
}

// TestRestoreMemoKeepsRowsTheNextFileReads is the LRU flood: the memo
// holds C secrets, file A has more distinct rows than that, and A′ is A
// with a few rows changed. Restored after A on one session, A′ pins the
// rows of A the memo still holds before its own first rows arrive, so it
// reads at least C minus the changed rows from the memo, the servers serve
// only the rest, and nothing planned as reused is refetched. (A
// recency-only memo reuses nothing here: A′'s first rows push out exactly
// the ones it comes to last.) A restore that fails mid-file gives back
// every pin it held.
func TestRestoreMemoKeepsRowsTheNextFileReads(t *testing.T) {
	const c = 8
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 4}
	a := sessionFile{path: "/a", ids: idRange(0, 3*c)}
	changed := map[int]int{5: 100, 2*c + 4: 101} // position -> new chunk id
	a2 := sessionFile{path: "/a2", ids: idRange(0, 3*c)}
	for pos, id := range changed {
		a2.ids[pos] = id
	}
	files := []sessionFile{a, a2}
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	rc.secrets.capacity = c * sessionChunk
	restoreOne(t, rc, a)
	checkMemoHolds(t, rc, files)
	before := cl.servedBy()
	st := restoreOne(t, rc, a2)
	if st.SecretsReused < int64(c-len(changed)) || st.MemoRefetches != 0 {
		t.Errorf("A′ reused %d rows with %d refetches; want at least %d, 0", st.SecretsReused, st.MemoRefetches, c-len(changed))
	}
	after := cl.servedBy()
	for i := 0; i < 3; i++ {
		if got, want := after[i]-before[i], uint64(st.Secrets-st.SecretsReused); got != want {
			t.Errorf("cloud %d served %d shares, want %d: one per row not reused", i, got, want)
		}
	}
	checkMemoHolds(t, rc, files)

	// A's rows that the memo holds are pinned when the restore starts; the
	// sink then fails a third of the way in.
	if _, err := rc.Restore(a.path, &failWriter{after: c * sessionChunk}); err == nil {
		t.Fatal("restore into a failing writer succeeded")
	}
	checkMemoHolds(t, rc, files)
	restoreOne(t, rc, a)
	checkMemoHolds(t, rc, files)
}

// TestRestoreMemoSurvivesTamperedCloud: a primary's containers are
// tampered between two files of a session. Rows the session has verified
// restore from the memo untouched; the second file's new rows go through
// the §3.2 subset retry and the container blacklist as on a fresh session,
// and nothing that failed verification is in the memo afterwards.
func TestRestoreMemoSurvivesTamperedCloud(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 8}
	files := []sessionFile{
		{path: "/clean", ids: idRange(0, 20)},
		{path: "/tampered", ids: idRange(0, 60)},
	}
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	restoreOne(t, rc, files[0])
	cl[0].tamperShares(t, 1)
	st := restoreOne(t, rc, files[1])
	if st.SecretsReused != 20 {
		t.Errorf("%d secrets reused, want the 20 the session had verified", st.SecretsReused)
	}
	if st.SubsetRetries == 0 || st.ContainersBlacklisted == 0 || st.SuspectShareSkips == 0 {
		t.Errorf("new rows over a tampered primary: %+v", st)
	}
	if st.SubsetRetries >= 40 {
		t.Errorf("%d subset retries for 40 new rows: escalation saved nothing", st.SubsetRetries)
	}
	checkMemoHolds(t, rc, files)
	// A second pass is all memo.
	if st := restoreOne(t, rc, files[1]); st.SecretsReused != 60 || st.DownloadedBytes != 0 {
		t.Errorf("second pass: %+v", st)
	}
}

// hookWriter calls hook once, before the write that takes it past after
// bytes.
type hookWriter struct {
	w     io.Writer
	after int
	hook  func()
}

func (h *hookWriter) Write(p []byte) (int, error) {
	if h.hook != nil && h.after < len(p) {
		h.hook()
		h.hook = nil
	}
	h.after -= len(p)
	return h.w.Write(p)
}

// TestRestoreSessionAcrossCloudFailure: a primary fails in the middle of a
// file, and stays down for the files after it. Row keys name the clouds
// read from, so they change with the reachable set: rows keyed before the
// failure are not found again, and everything still restores — the rest of
// that file through the failover, later files from rows keyed since.
func TestRestoreSessionAcrossCloudFailure(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 4}
	files := []sessionFile{
		{path: "/before", ids: idRange(0, 12)},
		{path: "/during", ids: append(idRange(0, 24), idRange(0, 24)...)},
		{path: "/after", ids: idRange(12, 30)},
	}
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	restoreOne(t, rc, files[0])
	var out bytes.Buffer
	st, err := rc.Restore(files[1].path, &hookWriter{w: &out, after: 2 * sessionChunk, hook: func() {
		rc.conns[0].pc.Close()
	}})
	if err != nil {
		t.Fatalf("restore across a cloud failure: %v", err)
	}
	if !bytes.Equal(out.Bytes(), chunksOf(files[1].ids...)) {
		t.Fatal("restore across a cloud failure is not byte-identical")
	}
	if st.Failovers != 1 {
		t.Errorf("%d failovers, want 1", st.Failovers)
	}
	if st.SecretsReused < 12 {
		t.Errorf("%d secrets reused, want at least the 12 of the first file", st.SecretsReused)
	}
	// Cloud 0 no longer answers: the engine reads from 1, 2 and 3, the set
	// the tail of the file before was keyed over.
	st = restoreOne(t, rc, files[2])
	if st.SecretsReused == 0 {
		t.Error("no row keyed since the failure was reused")
	}
	checkMemoHolds(t, rc, files)
}

// TestRestoreRandomisedSchemeNeverHits: under randomised AONT-RS equal
// secrets are unequal rows, so nothing is ever reused, and nothing breaks.
func TestRestoreRandomisedSchemeNeverHits(t *testing.T) {
	scheme, err := secretshare.NewAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 8, Scheme: scheme}
	files := weeklyFiles()
	backupAll(t, cl.connect(t, opts), files)
	rc := cl.connect(t, opts)
	for _, f := range files {
		if st := restoreOne(t, rc, f); st.SecretsReused != 0 || st.MemoRefetches != 0 || st.CacheHitBytes != 0 {
			t.Errorf("%s: %+v under a randomised scheme", f.path, st)
		}
	}
	// The same file again is the same rows.
	if st := restoreOne(t, rc, files[2]); st.SecretsReused != st.Secrets {
		t.Errorf("second restore of one file reused %d of %d secrets", st.SecretsReused, st.Secrets)
	}
}

// TestRestoreConcurrentOnOneClient runs the restores of four overlapping
// files at once on one client, twice, the memo a little smaller than what
// they hold between them.
func TestRestoreConcurrentOnOneClient(t *testing.T) {
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2, RestoreWindow: 8}
	files := append(weeklyFiles(), sessionFile{path: "/wk3", ids: idRange(10, 40)})
	backupAll(t, cl.connect(t, opts), files)

	rc := cl.connect(t, opts)
	rc.secrets.capacity = 30 * sessionChunk
	for round := 0; round < 2; round++ {
		errs := make([]error, len(files))
		var wg sync.WaitGroup
		for i, f := range files {
			wg.Add(1)
			go func(i int, f sessionFile) {
				defer wg.Done()
				var out bytes.Buffer
				if _, err := rc.Restore(f.path, &out); err != nil {
					errs[i] = err
				} else if !bytes.Equal(out.Bytes(), chunksOf(f.ids...)) {
					errs[i] = fmt.Errorf("not byte-identical")
				}
			}(i, f)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, files[i].path, err)
			}
		}
		checkMemoHolds(t, rc, files)
	}
}

// TestRestoreSessionAgainstModel: files drawn from a small alphabet of
// blocks, restored in random order over sessions with random tiny memos
// and windows, always equal the originals, and the stats always add up.
func TestRestoreSessionAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cl := newPipeCluster(t, 4, 3)
	files := make([]sessionFile, 6)
	for i := range files {
		ids := make([]int, 1+rng.Intn(40))
		for j := range ids {
			ids[j] = rng.Intn(12)
		}
		files[i] = sessionFile{path: fmt.Sprintf("/model%d", i), ids: ids}
	}
	backupAll(t, cl.connect(t, Options{K: 3, EncodeThreads: 2}), files)

	for session := 0; session < 8; session++ {
		rc := cl.connect(t, Options{K: 3, EncodeThreads: 1 + rng.Intn(3), RestoreWindow: 1 + rng.Intn(9)})
		rc.secrets.capacity = int64(rng.Intn(14)) * sessionChunk
		shareSize := int64(rc.scheme.ShareSize(sessionChunk))
		for i := 0; i < 10; i++ {
			f := files[rng.Intn(len(files))]
			st := restoreOne(t, rc, f)
			if want := 3 * shareSize * (st.Secrets - st.SecretsReused); st.DownloadedBytes != want {
				t.Fatalf("session %d, %s: downloaded %d bytes, want %d for %d secrets of which %d reused",
					session, f.path, st.DownloadedBytes, want, st.Secrets, st.SecretsReused)
			}
			if rc.secrets.capacity == 0 && st.SecretsReused != 0 {
				t.Fatalf("session %d, %s: %d secrets reused from a memo of no bytes", session, f.path, st.SecretsReused)
			}
			checkMemoHolds(t, rc, files)
		}
		rc.Close()
		if rc.secrets.used != 0 || len(rc.secrets.rows) != 0 {
			t.Fatalf("session %d: Close left %d bytes in the memo", session, rc.secrets.used)
		}
	}
}
