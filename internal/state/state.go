// Package state provides the tiny serialization helpers every snapshottable
// component shares: gob-encode a component's exported state struct into an
// opaque []byte and back. Keeping the helpers in one leaf package lets the
// controllers, the plant, and the metrics pipeline implement the simulator's
// Snapshotter interface without importing the simulator (or each other).
//
// gob is the right codec for the determinism contract of DESIGN.md §10:
// float64 values round-trip bit-exactly, and a map-free state struct
// encodes to the same bytes every time within one binary, which lets npckpt
// diff snapshots component by component. Only within one binary: gob
// numbers each type process-wide, in the order the process first encodes
// it, and every blob carries those numbers. So every package whose state
// goes through Marshal or into a checkpoint encodes its state types' zero
// values from an init function, which numbers each type and every type
// inside it. Package init order is fixed for a binary, so the binary
// numbers its state types the same way in every process, whichever of a
// run's concurrent jobs snapshots first. Two different binaries may still
// number the same type differently. Those init functions drop the encode
// error: the component's State returns the same error at its first
// snapshot.
package state

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// Marshal gob-encodes a component state value.
func Marshal(v any) ([]byte, error) {
	var b bytes.Buffer
	if err := gob.NewEncoder(&b).Encode(v); err != nil {
		return nil, fmt.Errorf("state: encode %T: %w", v, err)
	}
	return b.Bytes(), nil
}

// Unmarshal decodes a Marshal-produced blob into v (a pointer).
func Unmarshal(data []byte, v any) error {
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(v); err != nil {
		return fmt.Errorf("state: decode %T: %w", v, err)
	}
	return nil
}
