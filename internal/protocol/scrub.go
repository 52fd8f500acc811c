package protocol

import (
	"encoding/binary"

	"cdstore/internal/metadata"
)

// Scrub operator messages. MsgScrubStatus asks a server for the asker's
// damage inventory a heal round needs; MsgScrubControl runs one pass on
// demand. Types 19 and 20 (a share-to-container query, retired: repair
// asks MsgQuery, as backup does) are not reused.
const (
	MsgScrubStatus  = byte(17) // client -> server: {}
	MsgScrubReport  = byte(18) // server -> client: {inflightBytes:8, count:4, affected*}
	MsgScrubControl = byte(21) // client -> server: {}; ack MsgPutOK once the pass has finished
)

// AffectedFile names one of the asking user's files whose stripes
// reference damaged shares on the reporting cloud (or whose recipe bytes
// are gone there).
type AffectedFile struct {
	Path string
	// RecipeLost: the cloud can no longer produce the file's recipe;
	// repairing the file puts it back.
	RecipeLost bool
	// Damaged lists the file's share fingerprints flagged damaged on
	// this cloud (empty when only the recipe is lost).
	Damaged []metadata.Fingerprint
}

// ScrubReport is a server's MsgScrubReport payload. Like every reply, it
// depends only on the asker: the asker's files the cloud's damage
// touches, and no cloud-wide counter (those are server.Stats, published
// on the server's debug listener). InflightBytes is the one exception,
// kept because a heal round's idle gate reads it: it shows that some
// session has bytes in flight on the cloud, not what anyone holds.
type ScrubReport struct {
	// InflightBytes is the server's current flow-limiter admission debt;
	// a heal round defers repair while it is above zero.
	InflightBytes uint64
	Affected      []AffectedFile
}

// EncodeScrubReport builds a MsgScrubReport payload.
func EncodeScrubReport(r *ScrubReport) []byte {
	size := 8 + 4
	for i := range r.Affected {
		size += 4 + len(r.Affected[i].Path) + 1 + 4 + len(r.Affected[i].Damaged)*metadata.FingerprintSize
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint64(out, r.InflightBytes)
	out = binary.BigEndian.AppendUint32(out, uint32(len(r.Affected)))
	for i := range r.Affected {
		a := &r.Affected[i]
		out = binary.BigEndian.AppendUint32(out, uint32(len(a.Path)))
		out = append(out, a.Path...)
		if a.RecipeLost {
			out = append(out, 1)
		} else {
			out = append(out, 0)
		}
		out = binary.BigEndian.AppendUint32(out, uint32(len(a.Damaged)))
		for j := range a.Damaged {
			out = append(out, a.Damaged[j][:]...)
		}
	}
	return out
}

// DecodeScrubReport parses a MsgScrubReport payload.
func DecodeScrubReport(p []byte) (*ScrubReport, error) {
	if len(p) < 8+4 {
		return nil, ErrMalformed
	}
	r := &ScrubReport{InflightBytes: binary.BigEndian.Uint64(p)}
	count := int(binary.BigEndian.Uint32(p[8:]))
	p = p[12:]
	if count < 0 || count > 1<<22 {
		return nil, ErrMalformed
	}
	r.Affected = make([]AffectedFile, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 4 {
			return nil, ErrMalformed
		}
		var a AffectedFile
		plen := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		if plen < 0 || len(p) < plen+5 {
			return nil, ErrMalformed
		}
		a.Path = string(p[:plen])
		a.RecipeLost = p[plen] != 0
		fpCount := int(binary.BigEndian.Uint32(p[plen+1:]))
		p = p[plen+5:]
		if fpCount < 0 || len(p) < fpCount*metadata.FingerprintSize {
			return nil, ErrMalformed
		}
		a.Damaged = make([]metadata.Fingerprint, fpCount)
		for j := 0; j < fpCount; j++ {
			copy(a.Damaged[j][:], p)
			p = p[metadata.FingerprintSize:]
		}
		r.Affected = append(r.Affected, a)
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return r, nil
}
