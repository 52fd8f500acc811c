package protocol

import (
	"encoding/binary"

	"cdstore/internal/metadata"
)

// Scrub/repair operator messages. MsgScrubStatus asks a server for its
// scrubber's counters plus the asker's damage inventory a heal round
// needs; MsgGetShareContainers maps share fingerprints to the containers
// holding them ("" for one the asker does not hold there — a repair's
// question of which shares a target still holds); MsgScrubControl runs
// one pass on demand.
const (
	MsgScrubStatus        = byte(17) // client -> server: {}
	MsgScrubReport        = byte(18) // server -> client: scrub counters + affected files
	MsgGetShareContainers = byte(19) // client -> server: {count:4, fp*count}
	MsgShareContainers    = byte(20) // server -> client: {count:4, [nameLen:4 name]*}
	MsgScrubControl       = byte(21) // client -> server: {}; ack MsgPutOK once the pass has finished
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

// ScrubReport is a server's MsgScrubReport payload: scrubber lifetime
// counters, the outstanding damage inventory, and the load signal a heal
// round's idle gate uses.
type ScrubReport struct {
	Passes            uint64
	ContainersScanned uint64
	BytesScanned      uint64
	EntriesVerified   uint64
	DamagedContainers uint64
	DamagedEntries    uint64
	QuarantinedShares uint64
	LostRecipes       uint64
	// RepairedShares counts damaged index entries healed by repair
	// uploads (the acceptance observable for "re-dispersed to full
	// health with zero client calls").
	RepairedShares uint64
	// DamagedOutstanding is the number of share entries currently
	// flagged damaged (0 = cloud fully healed).
	DamagedOutstanding uint64
	// InflightBytes is the server's current flow-limiter admission debt;
	// a heal round defers repair while it is above zero.
	InflightBytes uint64
	Affected      []AffectedFile
}

const scrubReportCounters = 11 // uint64 counters before the affected files

// EncodeScrubReport builds a MsgScrubReport payload.
func EncodeScrubReport(r *ScrubReport) []byte {
	size := scrubReportCounters*8 + 4
	for i := range r.Affected {
		size += 4 + len(r.Affected[i].Path) + 1 + 4 + len(r.Affected[i].Damaged)*metadata.FingerprintSize
	}
	out := make([]byte, 0, size)
	for _, v := range []uint64{
		r.Passes, r.ContainersScanned, r.BytesScanned, r.EntriesVerified,
		r.DamagedContainers, r.DamagedEntries, r.QuarantinedShares,
		r.LostRecipes, r.RepairedShares, r.DamagedOutstanding, r.InflightBytes,
	} {
		out = binary.BigEndian.AppendUint64(out, v)
	}
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
	if len(p) < scrubReportCounters*8+4 {
		return nil, ErrMalformed
	}
	r := &ScrubReport{}
	counters := []*uint64{
		&r.Passes, &r.ContainersScanned, &r.BytesScanned, &r.EntriesVerified,
		&r.DamagedContainers, &r.DamagedEntries, &r.QuarantinedShares,
		&r.LostRecipes, &r.RepairedShares, &r.DamagedOutstanding, &r.InflightBytes,
	}
	for _, c := range counters {
		*c = binary.BigEndian.Uint64(p)
		p = p[8:]
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
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

// EncodeContainerNames builds a MsgShareContainers payload: one name per
// queried fingerprint, in query order; an empty name means the share is
// unknown (or its bytes are quarantined) on this cloud.
func EncodeContainerNames(names []string) []byte {
	size := 4
	for _, n := range names {
		size += 4 + len(n)
	}
	out := make([]byte, 0, size)
	out = binary.BigEndian.AppendUint32(out, uint32(len(names)))
	for _, n := range names {
		out = binary.BigEndian.AppendUint32(out, uint32(len(n)))
		out = append(out, n...)
	}
	return out
}

// DecodeContainerNames parses a MsgShareContainers payload.
func DecodeContainerNames(p []byte) ([]string, error) {
	if len(p) < 4 {
		return nil, ErrMalformed
	}
	count := int(binary.BigEndian.Uint32(p))
	p = p[4:]
	if count < 0 || count > 1<<22 {
		return nil, ErrMalformed
	}
	out := make([]string, 0, count)
	for i := 0; i < count; i++ {
		if len(p) < 4 {
			return nil, ErrMalformed
		}
		n := int(binary.BigEndian.Uint32(p))
		p = p[4:]
		if n < 0 || len(p) < n {
			return nil, ErrMalformed
		}
		out = append(out, string(p[:n]))
		p = p[n:]
	}
	if len(p) != 0 {
		return nil, ErrMalformed
	}
	return out, nil
}
