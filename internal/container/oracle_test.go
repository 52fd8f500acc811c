package container

import (
	"encoding/binary"
	"hash/crc32"
)

// The serializer as it stood while containers were built as a list of
// entries and marshalled on persist. The Writer now accumulates the file
// image directly; this stays, verbatim, as the oracle that image is
// compared with, and as the way tests build a serialized container from
// an entry list.

// Size returns the serialized size of the container so far.
func (c *Container) Size() int {
	n := headerSize + trailerSize
	for i := range c.Entries {
		n += entryOverhead + len(c.Entries[i].Data)
	}
	return n
}

// Marshal serializes the container.
func (c *Container) Marshal() []byte {
	out := make([]byte, 0, c.Size())
	out = binary.BigEndian.AppendUint32(out, containerMagic)
	out = append(out, containerVersion, byte(c.Type))
	out = binary.BigEndian.AppendUint64(out, c.UserID)
	out = binary.BigEndian.AppendUint32(out, uint32(len(c.Entries)))
	for i := range c.Entries {
		e := &c.Entries[i]
		out = append(out, e.Key[:]...)
		out = binary.BigEndian.AppendUint32(out, uint32(len(e.Data)))
		out = append(out, e.Data...)
	}
	out = binary.BigEndian.AppendUint32(out, crc32.ChecksumIEEE(out))
	return out
}
