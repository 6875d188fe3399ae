package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"snd/internal/runner"
)

// FuzzDecodeParams feeds arbitrary params documents to the registry's
// strict decoder. pick chooses the experiment (an index into Names()).
// A document Decode accepts is run on an engine whose backend refuses
// every sweep, so no trial ever executes. Nothing may panic; Run must
// fail; a sweep the backend is offered must lie within runner.MaxCells;
// and the bound DefaultParams must survive a JSON round trip through
// Decode unchanged. `go test` runs the committed corpus under
// testdata/fuzz/FuzzDecodeParams; `go test -fuzz=FuzzDecodeParams`
// explores further.
func FuzzDecodeParams(f *testing.F) {
	names := Names()
	f.Fuzz(func(t *testing.T, pick byte, doc []byte) {
		e, _ := Lookup(names[int(pick)%len(names)])
		bound, err := e.Decode(doc)
		if err != nil {
			return
		}
		b := &stopBackend{}
		if _, err := bound.Run(context.Background(), runner.New(runner.Options{Workers: 1, Backend: b})); err == nil {
			t.Fatalf("%s %s: ran past a refusing backend", e.Name(), doc)
		}
		if p, tr := b.desc.Points, b.desc.Trials; p > runner.MaxCells || (tr > 0 && p > runner.MaxCells/tr) {
			t.Fatalf("%s %s: backend offered a %dx%d grid", e.Name(), doc, p, tr)
		}

		def := bound.DefaultParams()
		raw, err := json.Marshal(def)
		if err != nil {
			t.Fatalf("%s: defaults do not marshal: %v", e.Name(), err)
		}
		again, err := e.Decode(raw)
		if err != nil {
			t.Fatalf("%s: own defaults %s do not decode: %v", e.Name(), raw, err)
		}
		if got := again.DefaultParams(); !reflect.DeepEqual(got, def) {
			t.Fatalf("%s: defaults changed across a round trip:\n%+v\n%+v", e.Name(), def, got)
		}
	})
}
