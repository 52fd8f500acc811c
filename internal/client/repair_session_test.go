package client

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cdstore/internal/core"
	"cdstore/internal/metadata"
)

const sessionChunk = 4096 // the fixed chunk size backup stores files in

// chunksOf concatenates the 4 KB chunks with the given ids: equal ids are
// equal chunks, so files built from overlapping id lists share rows.
func chunksOf(ids ...int) []byte {
	var out []byte
	for _, id := range ids {
		out = append(out, repairTestData(int64(9000+id), sessionChunk)...)
	}
	return out
}

func idRange(lo, hi int) []int {
	ids := make([]int, 0, hi-lo)
	for id := lo; id < hi; id++ {
		ids = append(ids, id)
	}
	return ids
}

// sessionFile is one backup of a repair-session test.
type sessionFile struct {
	path string
	ids  []int // chunk ids, in file order
	// fresh is the number of rows no earlier file of the session (and no
	// earlier secret of this one) holds.
	fresh int
}

// weeklyFiles are three backups in the shape of weekly snapshots: each
// repeats the one before and adds a little.
func weeklyFiles() []sessionFile {
	wk0 := idRange(0, 20)
	wk1 := append(idRange(0, 20), idRange(20, 24)...)
	wk2 := append(append(idRange(24, 26), wk1...), 25, 3) // two new chunks, then repeats — one of them of its own chunk
	return []sessionFile{
		{path: "/wk0", ids: wk0, fresh: 20},
		{path: "/wk1", ids: wk1, fresh: 4},
		{path: "/wk2", ids: wk2, fresh: 2},
	}
}

func backupAll(t *testing.T, c *Client, files []sessionFile) {
	t.Helper()
	for _, f := range files {
		if _, err := backup(c, f.path, chunksOf(f.ids...)); err != nil {
			t.Fatal(err)
		}
	}
}

func recipesOn(t *testing.T, c *Client, cloud int, files []sessionFile) []*metadata.Recipe {
	t.Helper()
	out := make([]*metadata.Recipe, len(files))
	for i, f := range files {
		out[i] = recipeOn(t, c, cloud, f.path)
	}
	return out
}

// checkRecipes compares the recipes cloud now holds for files with want,
// the ones the lost cloud held: entry for entry, and the file metadata.
func checkRecipes(t *testing.T, c *Client, cloud int, files []sessionFile, want []*metadata.Recipe) {
	t.Helper()
	for i, got := range recipesOn(t, c, cloud, files) {
		if !reflect.DeepEqual(got, want[i]) {
			t.Errorf("%s: rebuilt recipe differs from the one the lost cloud held", files[i].path)
		}
	}
}

// restoreAll restores every file through c and compares the bytes.
func restoreAll(t *testing.T, c *Client, files []sessionFile) {
	t.Helper()
	for _, f := range files {
		restoreOne(t, c, f)
	}
}

// TestRepairSessionRebuildsEachRowOnce: three files sharing most chunks,
// repaired on one session. The second and third read and send only the
// rows the session has not rebuilt yet, every secret still gets its recipe
// entry — the recipes and shares on the replacement equal, entry for entry
// and byte for byte, what the lost cloud held — and the replacement then
// carries decode weight with another cloud down.
func TestRepairSessionRebuildsEachRowOnce(t *testing.T) {
	const lost = 1
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	files := weeklyFiles()
	c := windowed(cl.connect(t, opts), 8)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)
	original := cl[lost].storedShares(t)

	cl[lost] = newPipeCloud(t, lost, 4, 3)
	rc := windowed(cl.connect(t, opts), 8)
	shareSize := int64(rc.codec.ShareSize(sessionChunk))
	for _, f := range files {
		before := cl[lost].srv.Stats().SharesReceived
		st, err := rc.Repair(f.path, lost)
		if err != nil {
			t.Fatalf("repair %s: %v", f.path, err)
		}
		fresh, all := int64(f.fresh), int64(len(f.ids))
		if st.Secrets != all || st.SecretsReused != all-fresh || st.SharesRebuilt != fresh {
			t.Errorf("%s: %d secrets, %d reused, %d rebuilt; want %d, %d, %d",
				f.path, st.Secrets, st.SecretsReused, st.SharesRebuilt, all, all-fresh, fresh)
		}
		if want := 3 * fresh * shareSize; st.Restore.DownloadedBytes != want {
			t.Errorf("%s: downloaded %d bytes, want %d (k shares of each new row)", f.path, st.Restore.DownloadedBytes, want)
		}
		if st.BytesReuploads != fresh*shareSize {
			t.Errorf("%s: re-uploaded %d bytes, want %d", f.path, st.BytesReuploads, fresh*shareSize)
		}
		if got := cl[lost].srv.Stats().SharesReceived - before; got != uint64(fresh) {
			t.Errorf("%s: target received %d shares, want %d", f.path, got, fresh)
		}
		if st.Restore.Bytes != all*sessionChunk || st.Restore.Secrets != all {
			t.Errorf("%s: read side reports %d bytes of %d secrets, want the whole file", f.path, st.Restore.Bytes, st.Restore.Secrets)
		}
	}
	checkRecipes(t, rc, lost, files, want)
	if !maps.EqualFunc(cl[lost].storedShares(t), original, bytes.Equal) {
		t.Fatal("shares on the replacement differ from the ones the backups stored")
	}
	restoreAll(t, windowed(cl.connect(t, opts, 0), 8), files)
}

// TestRepairReusesRowsHealedThroughSubsetRetry: at (4,2) with a tampered
// primary the first occurrence of every row is healed through the §3.2
// subset retry; a later file reuses those rows and retries only its own.
func TestRepairReusesRowsHealedThroughSubsetRetry(t *testing.T) {
	const lost = 3
	cl := newPipeCluster(t, 4, 2)
	opts := Options{K: 2, EncodeThreads: 2}
	files := []sessionFile{
		{path: "/heal0", ids: idRange(0, 24)},
		{path: "/heal1", ids: append(idRange(0, 24), 24, 25)},
	}
	c := windowed(cl.connect(t, opts), 4)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)
	original := cl[lost].storedShares(t)

	cl[0].tamperShares(t, 1) // clouds 0 and 1 are the primaries when 3 is excluded
	cl[lost] = newPipeCloud(t, lost, 4, 2)
	rc := windowed(cl.connect(t, opts), 4)
	first, err := rc.Repair(files[0].path, lost)
	if err != nil {
		t.Fatal(err)
	}
	if first.Restore.SubsetRetries == 0 || first.SharesRebuilt != 24 {
		t.Fatalf("first file: %d subset retries, %d shares rebuilt", first.Restore.SubsetRetries, first.SharesRebuilt)
	}
	second, err := rc.Repair(files[1].path, lost)
	if err != nil {
		t.Fatal(err)
	}
	if second.SecretsReused != 24 || second.SharesRebuilt != 2 {
		t.Fatalf("second file: %d reused, %d rebuilt; want 24, 2", second.SecretsReused, second.SharesRebuilt)
	}
	if second.Restore.SubsetRetries > 2 {
		t.Fatalf("second file took %d subset retries for 2 new rows", second.Restore.SubsetRetries)
	}
	checkRecipes(t, rc, lost, files, want)
	if !maps.EqualFunc(cl[lost].storedShares(t), original, bytes.Equal) {
		t.Fatal("shares rebuilt through retry and reuse differ from the ones the backups stored")
	}
	restoreAll(t, windowed(cl.connect(t, opts, 0, 1), 4), files)
}

// TestRepairStaleMemoFallsBack: the file whose repair filled the memo is
// deleted before the next repair, taking its shares on the target with
// it. The target no longer confirms the memoised rows, and the repair
// rebuilds them instead of failing on a recipe the target would refuse.
func TestRepairStaleMemoFallsBack(t *testing.T) {
	const lost = 2
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	files := []sessionFile{
		{path: "/stale0", ids: idRange(0, 10)},
		{path: "/stale1", ids: idRange(0, 12)},
		{path: "/stale2", ids: idRange(0, 12)},
	}
	c := cl.connect(t, opts)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)

	cl[lost] = newPipeCloud(t, lost, 4, 3)
	rc := cl.connect(t, opts)
	if _, err := rc.Repair(files[0].path, lost); err != nil {
		t.Fatal(err)
	}
	if err := rc.Delete(files[0].path); err != nil {
		t.Fatal(err)
	}
	before := cl[lost].srv.Stats().SharesReceived
	st, err := rc.Repair(files[1].path, lost)
	if err != nil {
		t.Fatalf("repair after the memoised shares were deleted: %v", err)
	}
	if st.SecretsReused != 0 || st.SharesRebuilt != 12 {
		t.Fatalf("%d reused, %d rebuilt; want 0, 12", st.SecretsReused, st.SharesRebuilt)
	}
	if got := cl[lost].srv.Stats().SharesReceived - before; got != 12 {
		t.Fatalf("target received %d shares, want 12: each row once", got)
	}
	// The memo now names rows the target does hold.
	st, err = rc.Repair(files[2].path, lost)
	if err != nil || st.SecretsReused != 12 || st.SharesRebuilt != 0 {
		t.Fatalf("repair after the fallback: %+v, %v", st, err)
	}
	checkRecipes(t, rc, lost, files[1:], want[1:])
	restoreAll(t, cl.connect(t, opts, 0), files[1:])
}

// TestRepairRebuildsMemoisedRowsTheTargetLost: after a session repaired
// its files the replacement loses the share bytes (silent corruption, then
// a scrub pass quarantines them; references and ownership stay). A second
// round of repairs on the same client must not take the memo's word for
// those rows: each is re-sent once, and the rows an earlier file of the
// round healed are reused again.
func TestRepairRebuildsMemoisedRowsTheTargetLost(t *testing.T) {
	const lost = 1
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	files := weeklyFiles()
	c := windowed(cl.connect(t, opts), 8)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)

	cl[lost] = newPipeCloud(t, lost, 4, 3)
	rc := windowed(cl.connect(t, opts), 8)
	for _, f := range files {
		if _, err := rc.Repair(f.path, lost); err != nil {
			t.Fatalf("repair %s: %v", f.path, err)
		}
	}
	cl[lost].tamperShares(t, 1)
	if _, err := cl[lost].srv.RunScrubPass(); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		before := cl[lost].srv.Stats().SharesReceived
		st, err := rc.Repair(f.path, lost)
		if err != nil {
			t.Fatalf("second repair of %s: %v", f.path, err)
		}
		fresh, all := int64(f.fresh), int64(len(f.ids))
		if st.SharesRebuilt != fresh || st.SecretsReused != all-fresh {
			t.Errorf("%s: %d rebuilt, %d reused; want %d, %d", f.path, st.SharesRebuilt, st.SecretsReused, fresh, all-fresh)
		}
		if got := cl[lost].srv.Stats().SharesReceived - before; got != uint64(fresh) {
			t.Errorf("%s: target received %d shares, want %d", f.path, got, fresh)
		}
	}
	checkRecipes(t, rc, lost, files, want)
	// With cloud 0 down every secret needs the healed cloud's share.
	dc := windowed(cl.connect(t, opts, 0), 8)
	for _, f := range files {
		var out bytes.Buffer
		st, err := dc.Restore(f.path, &out)
		if err != nil || !bytes.Equal(out.Bytes(), chunksOf(f.ids...)) {
			t.Fatalf("restore %s through the healed cloud: %v", f.path, err)
		}
		if st.SubsetRetries != 0 {
			t.Errorf("restore %s took %d subset retries: shares on the healed cloud are still bad", f.path, st.SubsetRetries)
		}
	}
}

// TestRepairMemoEvictionStaysCorrect tightens the memo to four rows: most
// rows have been evicted by the time they recur and are rebuilt again,
// and the result is the same. A row rebuilt again is not sent again: the
// target already holds its share, so the replacement receives each
// distinct share once.
func TestRepairMemoEvictionStaysCorrect(t *testing.T) {
	const lost = 0
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	files := weeklyFiles()
	c := windowed(cl.connect(t, opts), 8)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)
	original := cl[lost].storedShares(t)

	cl[lost] = newPipeCloud(t, lost, 4, 3)
	rc := windowed(cl.connect(t, opts), 8)
	rc.memo.capacity = 4 * memoEntryFloor
	var rebuilt int64
	for _, f := range files {
		st, err := rc.Repair(f.path, lost)
		if err != nil {
			t.Fatalf("repair %s: %v", f.path, err)
		}
		if st.Secrets != int64(len(f.ids)) || st.SecretsReused+st.SharesRebuilt != st.Secrets {
			t.Errorf("%s: %+v does not account for every secret", f.path, st)
		}
		rebuilt += st.SharesRebuilt
		rc.memo.mu.Lock()
		n := len(rc.memo.rows)
		rc.memo.mu.Unlock()
		if n > 4 {
			t.Fatalf("memo holds %d rows past a budget of 4", n)
		}
	}
	checkRecipes(t, rc, lost, files, want)
	if rebuilt <= 26 {
		t.Fatalf("%d shares rebuilt for 26 distinct rows: nothing was evicted", rebuilt)
	}
	if got := cl[lost].srv.Stats().SharesReceived; got != uint64(len(original)) {
		t.Fatalf("the replacement received %d shares for %d distinct ones", got, len(original))
	}
	if !maps.EqualFunc(cl[lost].storedShares(t), original, bytes.Equal) {
		t.Fatal("shares on the replacement differ from the ones the backups stored")
	}
	restoreAll(t, windowed(cl.connect(t, opts, 1), 8), files)
}

// TestRepairConcurrentOnOneClient runs the repairs of four overlapping
// files at once on one client, as the scheduler does.
func TestRepairConcurrentOnOneClient(t *testing.T) {
	const lost = 1
	cl := newPipeCluster(t, 4, 3)
	opts := Options{K: 3, EncodeThreads: 2}
	files := append(weeklyFiles(), sessionFile{path: "/wk3", ids: idRange(10, 40)})
	c := windowed(cl.connect(t, opts), 8)
	backupAll(t, c, files)
	want := recipesOn(t, c, lost, files)
	original := cl[lost].storedShares(t)

	cl[lost] = newPipeCloud(t, lost, 4, 3)
	rc := windowed(cl.connect(t, opts), 8)
	for round := 0; round < 2; round++ { // the second round finds the memo full
		errs := make([]error, len(files))
		var wg sync.WaitGroup
		for i, f := range files {
			wg.Add(1)
			go func(i int, path string) {
				defer wg.Done()
				st, err := rc.Repair(path, lost)
				if err == nil && st.Secrets != int64(len(files[i].ids)) {
					err = fmt.Errorf("%d secrets, want %d", st.Secrets, len(files[i].ids))
				}
				errs[i] = err
			}(i, f.path)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("round %d, %s: %v", round, files[i].path, err)
			}
		}
		checkRecipes(t, rc, lost, files, want)
	}
	if !maps.EqualFunc(cl[lost].storedShares(t), original, bytes.Equal) {
		t.Fatal("shares on the replacement differ from the ones the backups stored")
	}
	restoreAll(t, windowed(cl.connect(t, opts, 3), 8), files)
}

// TestRepairPlanKeysWholeRow: a row is reused only when the target, the
// secret size and the fingerprint on every surviving cloud all agree.
func TestRepairPlanKeysWholeRow(t *testing.T) {
	fp := func(b byte) metadata.Fingerprint { return metadata.Fingerprint{b} }
	// Secrets 0, 1 and 4 are one row; 2 differs from it on one cloud only,
	// 3 in the secret size only.
	rows := [][3]byte{{1, 2, 3}, {1, 2, 3}, {1, 2, 9}, {1, 2, 3}, {1, 2, 3}}
	sizes := []uint32{100, 100, 100, 101, 100}
	var clouds []cloudRecipe
	for ci := 0; ci < 3; ci++ {
		r := &metadata.Recipe{Entries: make([]metadata.RecipeEntry, len(rows))}
		for seq := range rows {
			r.Entries[seq] = metadata.RecipeEntry{ShareFP: fp(rows[seq][ci]), SecretSize: sizes[seq]}
		}
		clouds = append(clouds, cloudRecipe{cloud: ci, recipe: r})
	}
	codec, err := core.NewCAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := &Client{opts: Options{EncodeThreads: 2}, codec: codec}
	c.memo = newRowMemo(restoreMemoBytes, &c.secretPool)
	e := &restoreEngine{c: c, numSecrets: uint64(len(rows)), sizes: clouds[0].recipe.Entries, primary: clouds[:2], spares: clouds[2:], target: 3}
	// plan plans the file and returns the positions that start a row, those
	// that repeat one, and the candidates' entries and first positions.
	plan := func() (firsts, repeats []uint64, entries []metadata.RecipeEntry, candidates []uint64) {
		entries, candidates = c.candidates(e, len(e.planFile()))
		for pos, r := range e.rows {
			if r.repeat {
				repeats = append(repeats, uint64(pos))
			} else {
				firsts = append(firsts, uint64(pos))
			}
		}
		return firsts, repeats, entries, candidates
	}

	firsts, repeats, _, candidates := plan()
	if !slices.Equal(firsts, []uint64{0, 2, 3}) || !slices.Equal(repeats, []uint64{1, 4}) {
		t.Fatalf("plan rebuilds %v and repeats %v", firsts, repeats)
	}
	if e.rows[1].row != e.rows[0].row || e.rows[4].row != e.rows[0].row {
		t.Fatalf("repeats take rows %d and %d, want %d", e.rows[1].row, e.rows[4].row, e.rows[0].row)
	}
	if len(candidates) != 0 {
		t.Fatalf("plan: %d memo hits on an empty memo", len(candidates))
	}
	// Memoise the rows as a finished repair on target 3 does.
	rebuilt := metadata.RecipeEntry{ShareFP: fp(7), ShareSize: uint32(codec.ShareSize(100)), SecretSize: 100}
	for _, pos := range firsts {
		c.memo.donate(e.rows[pos].key, append(c.secretPool.Get(metadata.FingerprintSize)[:0], rebuilt.ShareFP[:]...), 0)
	}
	firsts, repeats, entries, candidates := plan()
	if !slices.Equal(candidates, []uint64{0, 2, 3}) || len(repeats) != 2 || entries[e.rows[2].row] != rebuilt {
		t.Fatalf("same target, memo full: rows at %v, hits at %v, repeats %v", firsts, candidates, repeats)
	}
	e.target = 2
	if firsts, _, _, candidates = plan(); len(firsts) != 3 || len(candidates) != 0 {
		t.Fatalf("another target reused rows: rows at %v, hits at %v", firsts, candidates)
	}
	e.target, e.spares = 3, nil // one survivor fewer is another row
	if firsts, _, _, candidates = plan(); !slices.Equal(firsts, []uint64{0, 3}) || len(candidates) != 0 {
		t.Fatalf("fewer survivors reused rows: rows at %v, hits at %v", firsts, candidates)
	}
}
