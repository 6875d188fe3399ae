package exp

import (
	"context"
	"encoding/json"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestDefaultParamsRoundTrip encodes every experiment's DefaultParams and
// decodes it back through the registry's strict decoder: the round trip
// must be lossless and must not trip DisallowUnknownFields. This catches
// schema drift — a params field the decoder cannot accept, or defaults
// that do not survive their own encoding.
func TestDefaultParamsRoundTrip(t *testing.T) {
	for _, name := range Names() {
		e, _ := Lookup(name)
		def := e.DefaultParams()
		raw, err := json.Marshal(def)
		if err != nil {
			t.Fatalf("%s: marshal defaults: %v", name, err)
		}
		bound, err := e.Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode own defaults: %v", name, err)
		}
		if got := bound.DefaultParams(); !reflect.DeepEqual(got, def) {
			t.Errorf("%s: DefaultParams not stable across decode: %+v != %+v", name, got, def)
		}
	}
}

// TestCatalogShape checks every catalog entry is complete: description,
// non-empty schema with Seed present, defaults that marshal, and a name
// that resolves back through Lookup.
func TestCatalogShape(t *testing.T) {
	catalog := Catalog()
	if len(catalog) != len(Names()) {
		t.Fatalf("catalog has %d entries, %d registered", len(catalog), len(Names()))
	}
	for _, entry := range catalog {
		if entry.Description == "" {
			t.Errorf("%s: empty description", entry.Name)
		}
		if len(entry.Params) == 0 {
			t.Errorf("%s: empty params schema", entry.Name)
		}
		seen := false
		for _, f := range entry.Params {
			if f.Name == "" || f.Type == "" {
				t.Errorf("%s: incomplete schema field %+v", entry.Name, f)
			}
			if f.Name == "Seed" {
				seen = true
			}
		}
		if !seen {
			t.Errorf("%s: schema has no Seed field", entry.Name)
		}
		if _, err := json.Marshal(entry.Defaults); err != nil {
			t.Errorf("%s: defaults do not marshal: %v", entry.Name, err)
		}
		if _, ok := Lookup(entry.Name); !ok {
			t.Errorf("%s: catalog name does not resolve", entry.Name)
		}
	}
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
}

// TestDecodeRejectsUnknownAndMistyped verifies the strict decoder names
// the offending field for both failure classes.
func TestDecodeRejectsUnknownAndMistyped(t *testing.T) {
	e, ok := Lookup("fig3")
	if !ok {
		t.Fatal("fig3 not registered")
	}
	if _, err := e.Decode(json.RawMessage(`{"Nodez":5}`)); err == nil || !strings.Contains(err.Error(), "Nodez") {
		t.Errorf("unknown field: want error naming Nodez, got %v", err)
	}
	if _, err := e.Decode(json.RawMessage(`{"Nodes":"many"}`)); err == nil || !strings.Contains(err.Error(), "Nodes") {
		t.Errorf("mistyped field: want error naming Nodes, got %v", err)
	}
}

// TestDecodeCLIMerging covers the -trials/-seed flag merge rules.
func TestDecodeCLIMerging(t *testing.T) {
	// Flags fill fields absent from the document.
	e, err := DecodeCLI("fig3", `{"Nodes":50}`, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	p := e.DefaultParams().(Fig3Params)
	if p.Trials != 7 || p.Seed != 42 || p.Nodes != 50 {
		t.Errorf("merge: got Trials=%d Seed=%d Nodes=%d", p.Trials, p.Seed, p.Nodes)
	}
	// The document wins over flags.
	e, err = DecodeCLI("fig3", `{"Trials":3,"Seed":9}`, 7, 42)
	if err != nil {
		t.Fatal(err)
	}
	p = e.DefaultParams().(Fig3Params)
	if p.Trials != 3 || p.Seed != 9 {
		t.Errorf("document should win: got Trials=%d Seed=%d", p.Trials, p.Seed)
	}
	// Experiments without a Trials field ignore the override.
	if _, err := DecodeCLI("overhead", "", 7, 42); err != nil {
		t.Errorf("overhead should ignore -trials: %v", err)
	}
	// Unknown experiment.
	if _, err := DecodeCLI("nope", "", 0, 1); err == nil {
		t.Error("unknown experiment should error")
	}
	// Bad JSON document.
	if _, err := DecodeCLI("fig3", `{"Nodes":`, 0, 1); err == nil {
		t.Error("bad params JSON should error")
	}
}

// TestEveryNameRunnable runs each registered experiment at its golden
// (tiny) configuration through the full Experiment interface — the
// "every name in the catalog is runnable" half of the round-trip
// satellite. The golden test asserts output; this one asserts the
// interface path itself, including the Health accessor.
func TestEveryNameRunnable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			e, _ := Lookup(name)
			bound, err := e.Decode(json.RawMessage(goldenConfigs[name]))
			if err != nil {
				t.Fatal(err)
			}
			res, err := bound.Run(context.Background(), nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Render() == "" {
				t.Error("empty Render()")
			}
			if h := res.Health(); h.Degraded() {
				t.Errorf("degraded sweep at golden config: %s", h)
			}
		})
	}
}
