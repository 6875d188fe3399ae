package core

import (
	"testing"
	"testing/quick"

	"snd/internal/crypto"
	"snd/internal/nodeid"
)

func TestBindingRecordEncodeDecodeRoundTrip(t *testing.T) {
	r := BindingRecord{
		Node:       7,
		Version:    3,
		Neighbors:  nodeid.NewSet(1, 2, 9),
		Commitment: crypto.Hash([]byte("c")),
	}
	got, err := DecodeBindingRecord(r.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != r.Node || got.Version != r.Version {
		t.Errorf("header mismatch: %+v", got)
	}
	if !got.Neighbors.Equal(r.Neighbors) {
		t.Errorf("neighbors = %v", got.Neighbors)
	}
	if !got.Commitment.Equal(r.Commitment) {
		t.Error("commitment mismatch")
	}
}

func TestBindingRecordRoundTripProperty(t *testing.T) {
	f := func(node uint32, version uint32, raw []uint32) bool {
		if node == 0 {
			node = 1
		}
		var ids []nodeid.ID
		for _, v := range raw {
			if v != 0 {
				ids = append(ids, nodeid.ID(v))
			}
		}
		r := BindingRecord{
			Node:       nodeid.ID(node),
			Version:    version,
			Neighbors:  nodeid.NewSet(ids...),
			Commitment: crypto.Hash([]byte{byte(node)}),
		}
		got, err := DecodeBindingRecord(r.Encode())
		return err == nil && got.Node == r.Node && got.Version == r.Version &&
			got.Neighbors.Equal(r.Neighbors) && got.Commitment.Equal(r.Commitment)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeBindingRecordRejectsGarbage(t *testing.T) {
	tests := []struct {
		name string
		give []byte
	}{
		{"empty", nil},
		{"short", make([]byte, 10)},
		{"count overruns", func() []byte {
			r := BindingRecord{Node: 1, Neighbors: nodeid.NewSet(2, 3)}
			b := r.Encode()
			b[11] = 200 // inflate neighbor count
			return b
		}()},
		{"truncated tail", func() []byte {
			r := BindingRecord{Node: 1, Neighbors: nodeid.NewSet(2, 3)}
			b := r.Encode()
			return b[:len(b)-5]
		}()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := DecodeBindingRecord(tt.give); err == nil {
				t.Error("garbage decoded successfully")
			}
		})
	}
}

// TestDecodedRecordIndependentOfFrame: a decoded record owns its neighbor
// list, so a receiver may reuse or overwrite the frame afterwards.
func TestDecodedRecordIndependentOfFrame(t *testing.T) {
	frame := BindingRecord{Node: 1, Neighbors: nodeid.NewSet(2, 3)}.Encode()
	r, err := DecodeBindingRecord(frame)
	if err != nil {
		t.Fatal(err)
	}
	for i := range frame {
		frame[i] = 0xff
	}
	if !r.Neighbors.Equal(nodeid.Set{2, 3}) {
		t.Errorf("neighbors follow the frame: %v", r.Neighbors)
	}
}

// idRange returns the IDs lo..hi as a Set.
func idRange(lo, hi nodeid.ID) nodeid.Set {
	var s nodeid.Set
	for id := lo; id <= hi; id++ {
		s = append(s, id)
	}
	return s
}

func TestBindingRecordStorageBytes(t *testing.T) {
	r := BindingRecord{Node: 1, Neighbors: nodeid.NewSet(2, 3, 4)}
	// 4 + 4 + 3*4 + 32 = 52.
	if got := r.StorageBytes(); got != 52 {
		t.Errorf("StorageBytes = %d, want 52", got)
	}
}
