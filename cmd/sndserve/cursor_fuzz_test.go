package main

import (
	"testing"
	"time"

	"snd/client"
)

// FuzzDecodeCursor: a listing cursor is an untrusted query parameter.
// decodeCursor(encodeCursor(j)) must give back j's position (creation time
// and ID), and an arbitrary string must decode to an error or a position
// that survives the same round trip — never a panic. `go test` runs the
// committed corpus under testdata/fuzz/FuzzDecodeCursor; `go test
// -fuzz=FuzzDecodeCursor` explores further.
func FuzzDecodeCursor(f *testing.F) {
	f.Add(int64(1700000000123456789), "a1b2c3d4", "")
	f.Add(int64(-1), "id:with:colons", "MTIzOmFiYw")
	f.Add(int64(0), "", "not base64!")
	f.Fuzz(func(t *testing.T, nano int64, id, raw string) {
		j := client.Job{ID: id, Created: time.Unix(0, nano)}
		gotNano, gotID, err := decodeCursor(encodeCursor(j))
		if err != nil || gotNano != nano || gotID != id {
			t.Fatalf("cursor of (%d, %q) decodes to (%d, %q, %v)", nano, id, gotNano, gotID, err)
		}

		n, s, err := decodeCursor(raw)
		if err != nil {
			return
		}
		n2, s2, err := decodeCursor(encodeCursor(client.Job{ID: s, Created: time.Unix(0, n)}))
		if err != nil || n2 != n || s2 != s {
			t.Fatalf("%q decodes to (%d, %q), whose cursor decodes to (%d, %q, %v)", raw, n, s, n2, s2, err)
		}
	})
}
