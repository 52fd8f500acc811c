package cloud

import (
	"errors"
	"testing"

	"cdstore/internal/storage"
)

func TestFaultyBackend(t *testing.T) {
	f := NewFaulty(storage.NewMemory())
	if err := f.Put("k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	f.Fail()
	if !f.Down() {
		t.Fatal("Down() = false after Fail")
	}
	if err := f.Put("k2", []byte("v")); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Put during outage: %v", err)
	}
	if _, err := f.Get("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Get during outage: %v", err)
	}
	if err := f.Delete("k"); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Delete during outage: %v", err)
	}
	if _, err := f.List(); !errors.Is(err, ErrUnavailable) {
		t.Fatalf("List during outage: %v", err)
	}
	f.Recover()
	got, err := f.Get("k")
	if err != nil || string(got) != "v" {
		t.Fatalf("after recovery: %q, %v", got, err)
	}
}
