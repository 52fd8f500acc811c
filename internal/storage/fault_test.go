package storage

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCorruptTransformAndDelete(t *testing.T) {
	mem := NewMemory()
	for _, n := range []string{"s-u1-0", "s-u1-1", "r-u1-0"} {
		if err := mem.Put(n, []byte("payload-"+n)); err != nil {
			t.Fatal(err)
		}
	}
	changed, err := Corrupt(mem,
		func(name string) bool { return strings.HasPrefix(name, "s-") },
		func(name string, data []byte) []byte {
			if name == "s-u1-1" {
				return nil // delete — container loss
			}
			return FlipBit(5)(name, data)
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(changed) != 2 {
		t.Fatalf("changed %v, want 2 objects", changed)
	}
	if _, err := mem.Get("s-u1-1"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted object still present (err=%v)", err)
	}
	d, err := mem.Get("s-u1-0")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(d, []byte("payload-s-u1-0")) {
		t.Fatal("matched object was not transformed")
	}
	r, err := mem.Get("r-u1-0")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, []byte("payload-r-u1-0")) {
		t.Fatal("unmatched object was modified")
	}
}

func TestFlipBitDeterministic(t *testing.T) {
	data := bytes.Repeat([]byte{0xFF}, 16)
	a := FlipBit(11)("obj", data)
	b := FlipBit(11)("obj", data)
	if !bytes.Equal(a, b) {
		t.Fatal("FlipBit not deterministic for same seed+name")
	}
	c := FlipBit(12)("obj", data)
	if bytes.Equal(a, c) {
		t.Fatal("FlipBit ignored the seed")
	}
	if bytes.Equal(a, data) {
		t.Fatal("FlipBit changed nothing")
	}
}
