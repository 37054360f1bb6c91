package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// SlotStore is a durable key→result store for resumable sweeps: each settled
// job writes its result under a caller-chosen key, and a restarted sweep
// skips every key already present. The backing file is a single JSON object
// rewritten atomically (temp file + rename) on every Put, so a kill mid-sweep
// loses at most the in-flight jobs — never settled ones.
//
// R must round-trip through encoding/json.
type SlotStore[R any] struct {
	path string

	mu    sync.Mutex
	slots map[string]json.RawMessage
}

// OpenSlotStore opens (or creates) the store at path, loading any previously
// settled slots.
func OpenSlotStore[R any](path string) (*SlotStore[R], error) {
	s := &SlotStore[R]{path: path, slots: make(map[string]json.RawMessage)}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return s, nil
	}
	if err != nil {
		return nil, fmt.Errorf("runner: slot store: %w", err)
	}
	if len(data) > 0 {
		if err := json.Unmarshal(data, &s.slots); err != nil {
			return nil, fmt.Errorf("runner: slot store %s is corrupt: %w", path, err)
		}
	}
	return s, nil
}

// Len reports the number of settled slots.
func (s *SlotStore[R]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.slots)
}

// Get returns the settled result for key, if any.
func (s *SlotStore[R]) Get(key string) (R, bool, error) {
	var r R
	s.mu.Lock()
	raw, ok := s.slots[key]
	s.mu.Unlock()
	if !ok {
		return r, false, nil
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return r, false, fmt.Errorf("runner: slot %q: %w", key, err)
	}
	return r, true, nil
}

// Put settles a slot and persists the whole store atomically.
func (s *SlotStore[R]) Put(key string, r R) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("runner: slot %q: %w", key, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.slots[key] = raw
	data, err := json.MarshalIndent(s.slots, "", " ")
	if err != nil {
		return fmt.Errorf("runner: slot store: %w", err)
	}
	dir := filepath.Dir(s.path)
	tmp, err := os.CreateTemp(dir, ".slots-*.tmp")
	if err != nil {
		return fmt.Errorf("runner: slot store: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("runner: slot store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("runner: slot store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("runner: slot store: %w", err)
	}
	if err := os.Rename(tmpName, s.path); err != nil {
		return fmt.Errorf("runner: slot store: %w", err)
	}
	return nil
}
