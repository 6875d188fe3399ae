package trace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent: arbitrary header values never panic; a rejected one
// yields zero IDs; an accepted one yields nonzero IDs that FormatTraceparent
// renders as a header parsing back to the same IDs. A version-00 header with
// the sampled flag is exactly what FormatTraceparent writes, up to case and
// surrounding space. `go test` runs the committed corpus under
// testdata/fuzz/FuzzParseTraceparent; `go test -fuzz=FuzzParseTraceparent`
// explores further.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	f.Add("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00-future")
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, ok := ParseTraceparent(h)
		if !ok {
			if !tid.IsZero() || !sid.IsZero() {
				t.Fatalf("rejected %q but returned IDs %v, %v", h, tid, sid)
			}
			return
		}
		if tid.IsZero() || sid.IsZero() {
			t.Fatalf("accepted %q with a zero ID: %v, %v", h, tid, sid)
		}
		out := FormatTraceparent(tid, sid)
		gotT, gotS, ok := ParseTraceparent(out)
		if !ok || gotT != tid || gotS != sid {
			t.Fatalf("%q parsed to %v, %v; its rendering %q parses to %v, %v, %v", h, tid, sid, out, gotT, gotS, ok)
		}
		if canon := strings.ToLower(strings.TrimSpace(h)); strings.HasPrefix(canon, "00-") && strings.HasSuffix(canon, "-01") && canon != out {
			t.Fatalf("%q renders as %q, want %q", h, out, canon)
		}
	})
}
