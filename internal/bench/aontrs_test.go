package bench

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	mrand "math/rand"
	"testing"
	"testing/quick"

	"cdstore/internal/aont"
	"cdstore/internal/secretshare"
)

func randKey(t testing.TB) []byte {
	t.Helper()
	key := make([]byte, aont.KeySize)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return key
}

// rivestPackage runs packageRivest over a fresh buffer holding data.
func rivestPackage(data, key []byte) ([]byte, error) {
	pkg := make([]byte, rivestPackageSize(len(data)))
	copy(pkg, data)
	return pkg, packageRivest(pkg, len(data), key)
}

// rivestUnpack runs unpackRivest into fresh buffers sized for origLen.
func rivestUnpack(pkg []byte, origLen int) ([]byte, [aont.KeySize]byte, error) {
	var key [aont.KeySize]byte
	data := make([]byte, rivestPackageSize(max(origLen, 0))-rivestWordSize-aont.HashSize)
	err := unpackRivest(pkg, origLen, data, &key)
	return data[:max(origLen, 0)], key, err
}

func TestRivestRoundTrip(t *testing.T) {
	key := randKey(t)
	for _, size := range []int{0, 1, 15, 16, 17, 100, 4096, 8192, 8193} {
		data := make([]byte, size)
		mrand.New(mrand.NewSource(int64(size))).Read(data)
		pkg, err := rivestPackage(data, key)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkg) != rivestPackageSize(size) {
			t.Fatalf("size %d: package %d bytes, want %d", size, len(pkg), rivestPackageSize(size))
		}
		got, gotKey, err := rivestUnpack(pkg, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("size %d: data mismatch", size)
		}
		if !bytes.Equal(gotKey[:], key) {
			t.Fatalf("size %d: recovered key mismatch", size)
		}
	}
}

func TestRivestDetectsCorruption(t *testing.T) {
	key := randKey(t)
	data := make([]byte, 1000)
	mrand.New(mrand.NewSource(1)).Read(data)
	pkg, err := rivestPackage(data, key)
	if err != nil {
		t.Fatal(err)
	}
	// Flipping any single byte anywhere in the package must trip the canary
	// (or the zero-padding check): all-or-nothing integrity.
	for _, pos := range []int{0, 3, 500, len(pkg) - aont.HashSize - 1, len(pkg) - 1} {
		bad := append([]byte(nil), pkg...)
		bad[pos] ^= 0x01
		if _, _, err := rivestUnpack(bad, len(data)); err != errCanary {
			t.Fatalf("corruption at byte %d: got %v, want errCanary", pos, err)
		}
	}
}

func TestRivestBadInputs(t *testing.T) {
	if _, err := rivestPackage([]byte("x"), []byte("short")); err != aont.ErrBadKeySize {
		t.Fatalf("want ErrBadKeySize, got %v", err)
	}
	if err := packageRivest(make([]byte, 10), 5, randKey(t)); err == nil {
		t.Fatal("wrong package size accepted")
	}
	if _, _, err := rivestUnpack([]byte("tiny"), 4); err != aont.ErrShortPackage {
		t.Fatalf("want ErrShortPackage, got %v", err)
	}
	key := randKey(t)
	pkg, _ := rivestPackage(make([]byte, 64), key)
	// origLen inconsistent with the number of words.
	if _, _, err := rivestUnpack(pkg, 10); err == nil {
		t.Fatal("inconsistent origLen should fail")
	}
	if _, _, err := rivestUnpack(pkg, 65); err == nil {
		t.Fatal("origLen larger than payload should fail")
	}
	// Misaligned package body.
	if _, _, err := rivestUnpack(pkg[:len(pkg)-1], 64); err == nil {
		t.Fatal("misaligned package should fail")
	}
	var keyOut [aont.KeySize]byte
	if err := unpackRivest(pkg, 64, make([]byte, 1), &keyOut); err == nil {
		t.Fatal("short data buffer accepted")
	}
}

func TestRivestDeterministicForSameKey(t *testing.T) {
	// Convergent dispersal depends on this: same (data, key) -> same package.
	key := randKey(t)
	data := []byte("identical content stored by two different users")
	a, err := rivestPackage(data, key)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rivestPackage(data, key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("packageRivest is not deterministic")
	}
}

func TestRivestKeysDiversifyPackages(t *testing.T) {
	data := []byte("same plaintext")
	a, _ := rivestPackage(data, randKey(t))
	b, _ := rivestPackage(data, randKey(t))
	if bytes.Equal(a, b) {
		t.Fatal("different keys must produce different packages")
	}
}

func TestRivestPropertyRoundTrip(t *testing.T) {
	key := randKey(t)
	err := quick.Check(func(data []byte) bool {
		pkg, err := rivestPackage(data, key)
		if err != nil {
			return false
		}
		got, gotKey, err := rivestUnpack(pkg, len(data))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data) && bytes.Equal(gotKey[:], key)
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPackageRivestDirtyBuffer: packaging over a reused dirty buffer gives
// the package a fresh one does — the padding region must be re-zeroed —
// and unpacking into a dirty buffer round-trips.
func TestPackageRivestDirtyBuffer(t *testing.T) {
	rng := mrand.New(mrand.NewSource(33))
	key := make([]byte, aont.KeySize)
	rng.Read(key)
	buf := make([]byte, rivestPackageSize(4096))
	out := make([]byte, 4096)
	for _, n := range []int{1, 15, 16, 17, 100, 4096} {
		data := make([]byte, n)
		rng.Read(data)
		want, err := rivestPackage(data, key)
		if err != nil {
			t.Fatal(err)
		}
		pkg := buf[:rivestPackageSize(n)]
		rng.Read(pkg) // dirty — stale bytes in the padding region
		copy(pkg, data)
		if err := packageRivest(pkg, n, key); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pkg, want) {
			t.Fatalf("len=%d: dirty buffer changed the package", n)
		}
		back := out[:len(pkg)-rivestWordSize-aont.HashSize]
		rng.Read(back) // dirty
		var gotKey [aont.KeySize]byte
		if err := unpackRivest(pkg, n, back, &gotKey); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back[:n], data) || !bytes.Equal(gotKey[:], key) {
			t.Fatalf("len=%d: round trip failed", n)
		}
	}
}

// TestCAONTRSRivestIsConvergent: equal secrets give equal shares across
// instances, distinct secrets distinct ones, and a well-formed AONT-RS
// package under a key that is not H(secret) passes the canary but is
// still refused — the check of Equation (1).
func TestCAONTRSRivestIsConvergent(t *testing.T) {
	s1, _ := NewCAONTRSRivest(4, 3)
	s2, _ := NewCAONTRSRivest(4, 3)
	secret := []byte("the exact same backup chunk uploaded by two different users")
	a, err := s1.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s2.Split(secret)
	if err != nil {
		t.Fatal(err)
	}
	c, err := s1.Split(append([]byte("X"), secret[1:]...))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("share %d differs across users; dedup impossible", i)
		}
		if bytes.Equal(a[i], c[i]) {
			t.Fatalf("different secrets share %d collide", i)
		}
	}
	forged, err := s1.splitWithKey(secret, randKey(t))
	if err != nil {
		t.Fatal(err)
	}
	have := map[int][]byte{0: forged[0], 1: forged[1], 3: forged[3]}
	if _, err := s1.AONTRS.Combine(have, len(secret)); err != nil {
		t.Fatalf("the forged package fails AONT-RS's own checks: %v", err)
	}
	if _, err := s1.Combine(have, len(secret)); !errors.Is(err, secretshare.ErrCorrupt) {
		t.Fatalf("key != H(secret): err=%v, want ErrCorrupt", err)
	}
}

// Golden share vectors of CAONT-RS-Rivest (a convergent scheme, so Split
// itself is pinned) and one share set a randomised AONT-RS Split produced
// (its key is random, so only the decode side can be pinned), generated
// at the same commit as CAONT-RS's in internal/core and never to be
// regenerated to make a change pass: Figure 5 compares these schemes, not
// ones that merely share their names.

// goldenSecret is the fixed secret of the given size the vectors were
// generated from.
func goldenSecret(size int) []byte {
	s := make([]byte, size)
	for i := range s {
		s[i] = byte(i*131 + (i >> 8) + 7)
	}
	return s
}

func TestGoldenRivestShareVectors(t *testing.T) {
	for _, row := range goldenRivestShareHashes {
		s, err := NewCAONTRSRivest(row.n, row.k)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := s.Split(goldenSecret(row.size))
		if err != nil {
			t.Fatalf("(%d,%d) size %d: %v", row.n, row.k, row.size, err)
		}
		if len(shares) != len(row.shares) {
			t.Fatalf("(%d,%d) size %d: %d shares, want %d", row.n, row.k, row.size, len(shares), len(row.shares))
		}
		for i, sh := range shares {
			h := sha256.Sum256(sh)
			if got := hex.EncodeToString(h[:]); got != row.shares[i] {
				t.Errorf("(%d,%d) size %d: share %d hashes to %s, stored as %s", row.n, row.k, row.size, i, got, row.shares[i])
			}
		}
	}
}

// TestGoldenAONTRSSharesCombine decodes one share set a randomised
// AONT-RS Split produced at the generating commit: its key is random, so
// only the decode side can be pinned.
func TestGoldenAONTRSSharesCombine(t *testing.T) {
	s, err := NewAONTRS(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := goldenSecret(100)
	shares := make([][]byte, len(goldenAONTRSShares))
	for i, h := range goldenAONTRSShares {
		if shares[i], err = hex.DecodeString(h); err != nil {
			t.Fatal(err)
		}
	}
	for _, subset := range [][]int{{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}, {0, 1, 2, 3}} {
		have := make(map[int][]byte)
		for _, i := range subset {
			have[i] = shares[i]
		}
		got, err := s.Combine(have, len(want))
		if err != nil {
			t.Fatalf("Combine %v: %v", subset, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("Combine %v returned a different secret", subset)
		}
	}
}

type goldenRow struct {
	scheme string
	n, k   int
	size   int
	shares []string // hex SHA-256 of share 0..n-1
}

var goldenRivestShareHashes = []goldenRow{
	{"CAONT-RS-Rivest", 4, 3, 1, []string{
		"dbd2ba98fbe994a25f42d84da9086010ec9d5fc9ee508c57f0981e59ca42b9e0",
		"2df10a25be36a1c7f484fed529119cd9ba3ae385c2e5ca7c5d423c752862e713",
		"5e898b0464bb0795bda81857037719e69e799743e5c8015d0e0fdacc194e69aa",
		"a480d4aaa5e94832aee89e61b97885a2487a473aaa3b988892a7875fe35f7f1d",
	}},
	{"CAONT-RS-Rivest", 4, 3, 31, []string{
		"2cbf025443e450077976381144b7b67544b367708720fa6b0b0b43c0ef24ec3f",
		"fa80a489ad3d37ca89ce16259f23c8d8609d6166414f4d5d79f899a1f63bcd0e",
		"92ea2887cb9263f2468411474ed7c7c3476fc9b893cd56287c7e653b81c85488",
		"107f151388ceb4327794275f767ee9282ef8735d80df2bf7f4db1790dbcec6fb",
	}},
	{"CAONT-RS-Rivest", 4, 3, 32, []string{
		"c8e253fb3eeb8800abde7780a597565bbc793b965be318c8cafd43f6b49452a7",
		"f71ee5acf9ff088f6a4d137b664d41d5145041d5e39c1ffb94ea2b53c2d171cf",
		"36d781b2aa2ba47897c1181ae5510b0142f33ee85e5c8455765daec56229b976",
		"a4ea6963e8f8326e632b0c7ecdd178ca092b149297365b7626a46b89918bfea3",
	}},
	{"CAONT-RS-Rivest", 4, 3, 33, []string{
		"33e26905329660065ea0567f5447887fe344adb2dd8237e9696fc06ba95389d3",
		"e1e13b89eb344d1d3eed87022252ee69e0af1768494748a98952bc08c513e2cd",
		"af821b129382f7cc955b4fd302eaaf2c420335ca949320334b6ebb457ff24ccd",
		"1b66431afd1fe9a97043a99ef67914f5a887c454c720e3b7dc53682b11c18010",
	}},
	{"CAONT-RS-Rivest", 4, 3, 4095, []string{
		"b51ffa4f8e873dc55e785bde1b4f520377f51c94ac0961691448022e14c343df",
		"e426b4b639fff3233848e6d60e410dc4a36847b905f0ad90ce713f10ce3a5991",
		"1ae5adc2b2352577c3818313d99aebff74924dbae2aa75811e4b9065898b84e1",
		"3e31f89a6ff86a804f94e15a4f982a42b9e67d073b20ddeb6adfb534eb9b6afa",
	}},
	{"CAONT-RS-Rivest", 4, 3, 8192, []string{
		"366dc9cb92bdf60704cb57cb6e4dae4a20aff26e169322d13a3e18192c6b0d1d",
		"12119292e7ae056d512166ae0b1439bf55bb6623900e98ce06b36a7fc47f4a1d",
		"df185fdf9f12988dea1eac53f31108dbc92a9d87f65240f3687b02b0a51fe9b9",
		"ce8239cc353d8d4d40fd1e4cac44ccd445258e43dec769c9adedc3a7cbbd1626",
	}},
	{"CAONT-RS-Rivest", 4, 3, 16384, []string{
		"3cca744266cf5868fbcae381a21ab37e8f8ecb817f8dc8c0d4daafe9adf53258",
		"1a87a6177a6b8d2dae55241477fe9a9a3765b82a711bedff0005ff7f8f9fc9bd",
		"6b89ea450c69f0143c112c15027c4ae6a2f6cb505ddffbdf2ff0803bb8bd2ce3",
		"57c1d06d153cc13dade23898c741db5964e6e4f3c3345719b8a430a1b15cca72",
	}},
	{"CAONT-RS-Rivest", 6, 4, 1, []string{
		"98b815b5cce99fdf28fee60445150cc2b3a540bb03a3ef8b8f095549c9e4a270",
		"2360a93602b0cecb0005229e8ace5a62eff9e1f21a7acd3f8dc5f2821cf7f3df",
		"19e31ca1ad881fa11b1634df0606e26a725660b2df2ece2ff1e25a0c8b4185e0",
		"23f953443cbb35374ea8388bc57ca91dc3f9faa489e6573dfb566d7356651b14",
		"63029b6ac7723e7d566e89aebb814de6db30505705b6a0e29c3a8732725fea6b",
		"92b24e1f923233bf357c80ae2dd9a7ad799e0917ce9d42f05d104252b1728c08",
	}},
	{"CAONT-RS-Rivest", 6, 4, 31, []string{
		"b422d50f5db7532dda18573c7b8a6cd5e150bef850bc4a2827f83da551ddc49c",
		"c09e59e9dc564fdaf3bd8ad0198b986cec8c2608b0ceaa19d59fc50169af4f70",
		"1d7e4af7ee970b47b8f1bbfca02d20e5e176c7db6e8d6271e2e7dc443ed5455e",
		"9501e8cf70b0caec63ba7f901e833ece2bdc2197663e0fbc6c7e9137f090018b",
		"aa1d7528d9991f6c359d66758b939afa0b7bb3a1863c4b72d21634803cee863f",
		"992f89597cb846467dfbec7e0501df70c742181dd82c3d6a1ad4bdf7cf756032",
	}},
	{"CAONT-RS-Rivest", 6, 4, 32, []string{
		"b6a41c2b2b572dae8f1a2b78984db3d4ae0a1146622ea573b5e96804885baafb",
		"8f8cdbdef815f3fff64ac4948ae221ee368b18976cca3500615cb46c110be74c",
		"d9f99dc8a9be0b90ce01672a157c98220a0c787e7c6fca88318a6367d7cf2db7",
		"3fcc048ca2fe7fbe49c3db44e582a39934e246b94dfac145763ce4d2c92d9fb5",
		"853e02dcf81ceddd0782bc519b6e4f204b0500d492fe38ba251272d808a67645",
		"c61567707cb9c1033534ee26c0883b573882f499bbd234a44a3c46dd23ae1a19",
	}},
	{"CAONT-RS-Rivest", 6, 4, 33, []string{
		"236d2b4c865aab0dd41ad766e0118ffcd2940aa3e73bbfd51b87cd1cdb511457",
		"44a3a32b3578c9bfea1c292d99136deca6fe77c270eea42373af4fd1f4c3f9cf",
		"6116ef57cc1eb7f67918e05f44bca341aecd2dec0177701e685f7fb45c5d7ea2",
		"397fea4ecf774c3ae6ac494fc698dc22598a9fafea2793792e51ed168ff214bc",
		"6792b7cda0a5c83dd6f503490bb3dd480c731be6012a2c298c252458d2570a34",
		"e2a1c801ea5ce76e012a99cabf2cfcbafaf20ad840e62d5516c27578f2da3d27",
	}},
	{"CAONT-RS-Rivest", 6, 4, 4095, []string{
		"e55b8acfd02abb1913cfc8693da8532b5ea75fb001ffb034015e48af28060595",
		"e42621d951300eb20f58c5241e6f5a4bf70838b1389e01b87a5756ae9d7b1924",
		"879536b0795a818d7f52fc6fd389e42b1be9374b8dafc5743c816dc8332eca84",
		"3b8e3a64d6b83d012b49e8658eb1208bb3e94a7c5231d11c4e27b2a8d1969839",
		"f68b4759a4da3b09a7dc13d7ae6ae858f64957c457b9b91e74b2d1d787f111bb",
		"9f3dccd4b629b17c649702d65644c2806ec9702ff22520af024f9fae0169cdbb",
	}},
	{"CAONT-RS-Rivest", 6, 4, 8192, []string{
		"412431582915b570fe495e79a2179b7aec94c5403733a290910e7ab48d5e4a5e",
		"97944e9f9e069453f9bd8b0a0941dacbd3e516261dbec7456475f183590f10d4",
		"b00c9a9544d1608d90d46e2068fb403dd2244706edcd2f0944b3ed94c21d618d",
		"7346d2cee4ebe88043a08232c418909540a9e74083aaafda5f23011ed8639d7c",
		"17fd0672a341065a9317a8e9dfaae2f2ceec1c8cf663ead6e123ce9806979d86",
		"47f08f29ce1614237c789273097da0339db968449c32c6be25c492d5ae0f53eb",
	}},
	{"CAONT-RS-Rivest", 6, 4, 16384, []string{
		"9ab22eb162d61ee2c6f1625a046f4d56e78ac5350b5338646d710c2ca84bc5e4",
		"e6a6f4ee7f060dc7549c4c63d12a587b866ea991096451f73d20c274f2037c42",
		"a5061f93ec9d03812743294661212caee1ba1cb99d14c4f13129af84a2d1857e",
		"fa6d47e0e0ddb0195ba79fd278622d4df5d727b681faeac5ba985d3775227731",
		"b01ece1394272a727d87a3898c33534729a76996f44cf720c76ede49722dcedf",
		"432047f46162b46ac0998b0b045a09db7e8e7478b42ac745486f8aec12b7ccbd",
	}},
}

var goldenAONTRSShares = []string{
	"02a92bfa0a628e65f4298626044be34ddd0e9811ee6ccdf9ae04e014dc416fc1ca74bc999de7c8700410b8d4383e11df26aed4dea1b5",
	"c860dd3f4cc7f7f320088418a235cab330cd36259ddb1b79e8656b4dd72b9761102155f4463912cc22620e7385ec6747527f7ce33975",
	"6c8669d4771278f7b8ade157a5b699f24a659c531e3261c3d1ed7e1a8cc96ff0d99433a72001730f5230b28dc394bd1de0ce28d80000",
	"a64f9f1131b701616c8ce36903c8b00ca7a632676d85b743978cf54387a3975003c1dacafbdfa9b37442042a7e46cb85941f80e598c0",
}

// The benchmarks package into one reused buffer, as an encode worker does.

func BenchmarkPackageRivest8KB(b *testing.B) {
	key := randKey(b)
	data := make([]byte, 8192)
	mrand.New(mrand.NewSource(3)).Read(data)
	pkg := make([]byte, rivestPackageSize(len(data)))
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(pkg, data)
		if err := packageRivest(pkg, len(data), key); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCAONTRSRivestSplit8KB(b *testing.B) {
	s, _ := NewCAONTRSRivest(4, 3)
	data := make([]byte, 8192)
	mrand.New(mrand.NewSource(41)).Read(data)
	b.SetBytes(8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Split(data); err != nil {
			b.Fatal(err)
		}
	}
}
