package storage

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// backendContract exercises the Backend interface invariants.
func backendContract(t *testing.T, b Backend) {
	t.Helper()
	// Absent object.
	if _, err := b.Get("missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	// Put/Get round trip.
	if err := b.Put("obj1", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get("obj1")
	if err != nil || string(got) != "hello" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	// Overwrite.
	if err := b.Put("obj1", []byte("world")); err != nil {
		t.Fatal(err)
	}
	got, _ = b.Get("obj1")
	if string(got) != "world" {
		t.Fatalf("overwrite failed: %q", got)
	}
	// List is sorted and complete.
	b.Put("obj0", []byte("x"))
	b.Put("obj2", []byte("y"))
	names, err := b.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 3 || names[0] != "obj0" || names[1] != "obj1" || names[2] != "obj2" {
		t.Fatalf("List = %v", names)
	}
	// Delete, including absent.
	if err := b.Delete("obj1"); err != nil {
		t.Fatal(err)
	}
	if err := b.Delete("obj1"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if _, err := b.Get("obj1"); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted object still present")
	}
	// Mutating the returned slice must not affect the store.
	b.Put("immut", []byte("abc"))
	got, _ = b.Get("immut")
	got[0] = 'X'
	again, _ := b.Get("immut")
	if string(again) != "abc" {
		t.Fatal("backend exposed internal buffer")
	}
}

func TestMemoryContract(t *testing.T) { backendContract(t, NewMemory()) }

func TestLocalDirContract(t *testing.T) {
	b, err := NewLocalDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	backendContract(t, b)
}

func TestLocalDirEscaping(t *testing.T) {
	b, err := NewLocalDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Hostile names must not escape the directory.
	for _, name := range []string{"../../etc/passwd", "a/b/c", "..\\..\\x"} {
		if err := b.Put(name, []byte("data")); err != nil {
			t.Fatalf("Put(%q): %v", name, err)
		}
		got, err := b.Get(name)
		if err != nil || string(got) != "data" {
			t.Fatalf("Get(%q) = %q, %v", name, got, err)
		}
	}
}

func TestMemoryTotalBytes(t *testing.T) {
	m := NewMemory()
	m.Put("a", make([]byte, 100))
	m.Put("b", make([]byte, 50))
	if m.TotalBytes() != 150 {
		t.Fatalf("TotalBytes = %d, want 150", m.TotalBytes())
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("obj-%d", (g+i)%50)
				m.Put(name, []byte{byte(i)})
				m.Get(name)
				if i%17 == 0 {
					m.Delete(name)
				}
				m.List()
			}
		}(g)
	}
	wg.Wait()
}
