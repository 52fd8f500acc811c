package protocol

import (
	"bytes"
	"net"
	"testing"
	"testing/quick"

	"cdstore/internal/metadata"
)

func TestFramingRoundTrip(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	ca, cb := NewConn(a), NewConn(b)
	go func() {
		ca.WriteMsg(MsgHello, EncodeHello(42))
		ca.WriteMsg(MsgBye, nil)
	}()
	typ, payload, err := cb.ReadMsg()
	if err != nil || typ != MsgHello {
		t.Fatalf("ReadMsg: %d, %v", typ, err)
	}
	uid, err := DecodeHello(payload)
	if err != nil || uid != 42 {
		t.Fatalf("DecodeHello: %d, %v", uid, err)
	}
	typ, payload, err = cb.ReadMsg()
	if err != nil || typ != MsgBye || len(payload) != 0 {
		t.Fatalf("second message: %d %d %v", typ, len(payload), err)
	}
}

func TestWriteMsgTooLarge(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	c := NewConn(a)
	if err := c.WriteMsg(MsgPutShares, make([]byte, MaxMessage+1)); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestReadMsgRejectsHugeFrame(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{MsgHello, 0xFF, 0xFF, 0xFF, 0xFF})
	c := NewConn(&rwWrap{r: &buf})
	if _, _, err := c.ReadMsg(); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

type rwWrap struct{ r *bytes.Buffer }

func (w *rwWrap) Read(p []byte) (int, error)  { return w.r.Read(p) }
func (w *rwWrap) Write(p []byte) (int, error) { return len(p), nil }

func TestHelloOKCodec(t *testing.T) {
	ci, n, k, err := DecodeHelloOK(EncodeHelloOK(2, 4, 3))
	if err != nil || ci != 2 || n != 4 || k != 3 {
		t.Fatalf("got (%d,%d,%d), %v", ci, n, k, err)
	}
	if _, _, _, err := DecodeHelloOK([]byte{1}); err != ErrMalformed {
		t.Fatal("short HelloOK accepted")
	}
}

func TestFingerprintsCodec(t *testing.T) {
	fps := []metadata.Fingerprint{
		metadata.FingerprintOf([]byte("a")),
		metadata.FingerprintOf([]byte("b")),
	}
	got, err := DecodeFingerprints(EncodeFingerprints(fps))
	if err != nil || len(got) != 2 || got[0] != fps[0] || got[1] != fps[1] {
		t.Fatalf("round trip failed: %v", err)
	}
	empty, err := DecodeFingerprints(EncodeFingerprints(nil))
	if err != nil || len(empty) != 0 {
		t.Fatal("empty list failed")
	}
	if _, err := DecodeFingerprints([]byte{0, 0, 0, 5, 1, 2}); err != ErrMalformed {
		t.Fatal("truncated list accepted")
	}
}

func TestBitmapCodec(t *testing.T) {
	err := quick.Check(func(owned []bool) bool {
		got, err := DecodeBitmap(EncodeBitmap(owned))
		if err != nil || len(got) != len(owned) {
			return false
		}
		for i := range owned {
			if got[i] != owned[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 300})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBitmap([]byte{0, 0, 0, 9, 0}); err != ErrMalformed {
		t.Fatal("bad bitmap length accepted")
	}
}

func TestShareBatchCodec(t *testing.T) {
	batch := []ShareUpload{
		{SecretSeq: 0, SecretSize: 8192, Data: []byte("share-0")},
		{SecretSeq: 1, SecretSize: 4096, Data: []byte{}},
		{SecretSeq: 99, SecretSize: 1, Data: bytes.Repeat([]byte("x"), 10000)},
	}
	got, err := DecodeShareBatch(EncodeShareBatch(batch))
	if err != nil || len(got) != 3 {
		t.Fatalf("decode: %d, %v", len(got), err)
	}
	for i := range batch {
		if got[i].SecretSeq != batch[i].SecretSeq || got[i].SecretSize != batch[i].SecretSize ||
			!bytes.Equal(got[i].Data, batch[i].Data) {
			t.Fatalf("entry %d mismatch", i)
		}
	}
	if _, err := DecodeShareBatch([]byte{0, 0}); err != ErrMalformed {
		t.Fatal("short batch accepted")
	}
	enc := EncodeShareBatch(batch)
	if _, err := DecodeShareBatch(enc[:len(enc)-1]); err != ErrMalformed {
		t.Fatal("truncated batch accepted")
	}
	if _, err := DecodeShareBatch(append(enc, 0)); err != ErrMalformed {
		t.Fatal("padded batch accepted")
	}
}

func TestSharesCodec(t *testing.T) {
	shares := []ShareDownload{
		{Fingerprint: metadata.FingerprintOf([]byte("1")), Data: []byte("data-1")},
		{Fingerprint: metadata.FingerprintOf([]byte("2")), Data: nil},
	}
	got, err := DecodeShares(EncodeShares(shares))
	if err != nil || len(got) != 2 {
		t.Fatalf("decode: %v", err)
	}
	if got[0].Fingerprint != shares[0].Fingerprint || !bytes.Equal(got[0].Data, shares[0].Data) {
		t.Fatal("share 0 mismatch")
	}
	if len(got[1].Data) != 0 {
		t.Fatal("share 1 should be empty")
	}
}

// TestDecodeSharesAliasesPayload: the decoded shares are views into the
// payload, not copies, each clipped to its own bytes so that appending to
// one cannot reach the next.
func TestDecodeSharesAliasesPayload(t *testing.T) {
	payload := EncodeShares([]ShareDownload{
		{Fingerprint: metadata.FingerprintOf([]byte("1")), Data: []byte("data-1")},
		{Fingerprint: metadata.FingerprintOf([]byte("2")), Data: []byte("data-2")},
	})
	got, err := DecodeShares(payload)
	if err != nil {
		t.Fatal(err)
	}
	payload[len(payload)-1] = 'X'
	if string(got[1].Data) != "data-X" {
		t.Fatalf("share 1 reads %q after its payload byte changed: a copy, not a view", got[1].Data)
	}
	before := bytes.Clone(payload)
	_ = append(got[0].Data, 'Y')
	if !bytes.Equal(payload, before) {
		t.Fatal("appending to share 0 wrote into the payload past its own bytes")
	}
}

func TestStringCodec(t *testing.T) {
	for _, s := range []string{"", "/a/b/c.tar", "unicode-✓"} {
		got, err := DecodeString(EncodeString(s))
		if err != nil || got != s {
			t.Fatalf("round trip %q: %q, %v", s, got, err)
		}
	}
	if _, err := DecodeString([]byte{0, 0, 0, 5, 'a'}); err != ErrMalformed {
		t.Fatal("bad string accepted")
	}
}

func TestFileListCodec(t *testing.T) {
	files := []FileInfo{
		{Path: "/backup1.tar", FileSize: 100, NumSecrets: 3},
		{Path: "/backup2.tar", FileSize: 1 << 40, NumSecrets: 1 << 20},
	}
	got, err := DecodeFileList(EncodeFileList(files))
	if err != nil || len(got) != 2 {
		t.Fatalf("decode: %v", err)
	}
	for i := range files {
		if got[i] != files[i] {
			t.Fatalf("entry %d mismatch: %+v", i, got[i])
		}
	}
	if _, err := DecodeFileList([]byte{1}); err != ErrMalformed {
		t.Fatal("short list accepted")
	}
}

func TestErrorCodec(t *testing.T) {
	re, err := DecodeError(EncodeError(CodeNotFound, "no such file"))
	if err != nil || re.Code != CodeNotFound || re.Msg != "no such file" {
		t.Fatalf("round trip: %+v, %v", re, err)
	}
	if re.Error() == "" {
		t.Fatal("empty error string")
	}
	if _, err := DecodeError([]byte{1, 2}); err != ErrMalformed {
		t.Fatal("short error accepted")
	}
}

func TestPutOKCodec(t *testing.T) {
	n, err := DecodePutOK(EncodePutOK(17))
	if err != nil || n != 17 {
		t.Fatalf("round trip: %d, %v", n, err)
	}
	if _, err := DecodePutOK([]byte{1, 2, 3}); err != ErrMalformed {
		t.Fatal("short PutOK accepted")
	}
}
