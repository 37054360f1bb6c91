package runner

import (
	"os"
	"path/filepath"
	"testing"
)

func TestSlotStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slots.json")
	s, err := OpenSlotStore[int](path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.Get("a"); ok || err != nil {
		t.Fatalf("Get on empty store = %v, %v", ok, err)
	}
	if err := s.Put("a", 7); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", 9); err != nil {
		t.Fatal(err)
	}

	// Reopen: settled slots survive the process.
	s2, err := OpenSlotStore[int](path)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 2 {
		t.Errorf("Len = %d, want 2", s2.Len())
	}
	v, ok, err := s2.Get("a")
	if err != nil || !ok || v != 7 {
		t.Errorf("Get(a) = %d, %v, %v", v, ok, err)
	}
}

func TestSlotStorePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "slots.json")
	s, err := OpenSlotStore[string](path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", "v"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "slots.json" {
		t.Errorf("dir entries = %v, want only slots.json", ents)
	}
}

func TestSlotStoreRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "slots.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenSlotStore[int](path); err == nil {
		t.Error("corrupt store opened without error")
	}
}
