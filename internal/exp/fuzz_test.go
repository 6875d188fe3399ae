package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
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

// FuzzDecodeCLI feeds arbitrary -params documents and -trials/-seed flag
// values to DecodeCLI for every registered experiment (pick indexes
// Names()). An empty document and JSON null both mean {}. Nothing may
// panic; DecodeCLI must fail exactly when the document is not one JSON
// value or the strict decoder rejects it (the flags are well-typed fields,
// so merging them never changes the verdict); and on success the bound
// params must equal the document's own, except that a Seed the document
// leaves unset takes the -seed flag, and an unset Trials takes -trials
// when it is positive and the experiment has that field. A field set to
// null counts as unset, as it does in the decoder. `go test` runs the
// committed corpus under testdata/fuzz/FuzzDecodeCLI.
func FuzzDecodeCLI(f *testing.F) {
	names := Names()
	f.Fuzz(func(t *testing.T, pick byte, params string, trials int, seed int64) {
		name := names[int(pick)%len(names)]
		e, _ := Lookup(name)
		bound, err := DecodeCLI(name, params, trials, seed)

		doc := strings.TrimSpace(params)
		if doc == "" || doc == "null" {
			doc = "{}"
		}
		if !json.Valid([]byte(doc)) {
			if err == nil {
				t.Fatalf("%s %q: accepted a document that is not one JSON value", name, params)
			}
			return
		}
		own, ownErr := e.Decode(json.RawMessage(doc))
		if (err == nil) != (ownErr == nil) {
			t.Fatalf("%s %q trials=%d seed=%d: DecodeCLI error %v, strict decoder error %v",
				name, params, trials, seed, err, ownErr)
		}
		if err != nil {
			return
		}

		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(doc), &fields); err != nil {
			t.Fatalf("%s %q: decoded, but is not an object: %v", name, params, err)
		}
		sets := func(field string) bool {
			for k, v := range fields {
				if strings.EqualFold(k, field) && !bytes.Equal(bytes.TrimSpace(v), []byte("null")) {
					return true
				}
			}
			return false
		}
		want := reflect.New(reflect.TypeOf(own.DefaultParams())).Elem()
		want.Set(reflect.ValueOf(own.DefaultParams()))
		// A zero flag leaves the field zero, which the defaults then fill
		// exactly as they fill the document's own zero.
		if f := want.FieldByName("Seed"); f.IsValid() && !sets("Seed") && seed != 0 {
			f.SetInt(seed)
		}
		if f := want.FieldByName("Trials"); f.IsValid() && !sets("Trials") && trials > 0 {
			f.SetInt(int64(trials))
		}
		if got := bound.DefaultParams(); !reflect.DeepEqual(got, want.Interface()) {
			t.Fatalf("%s %q trials=%d seed=%d:\ngot  %+v\nwant %+v", name, params, trials, seed, got, want.Interface())
		}
	})
}
