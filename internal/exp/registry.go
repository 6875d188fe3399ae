package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"

	"snd/internal/runner"
	"snd/internal/stats"
)

// Result is what every experiment returns: a terminal rendering of the
// figure or table, plus the health of the sweep that produced it. Concrete
// result types keep their richer structure (series, rows, bounds) for
// programmatic callers; the interface is what the dispatch layer needs.
type Result interface {
	// Render formats the result for terminal output — the same rows and
	// series the paper reports.
	Render() string
	// Health reports trials lost to the panic-retry budget; degraded cells
	// average fewer samples than requested and should be surfaced.
	Health() SweepHealth
}

// Tabular is implemented by results whose rendering is a stats.Table;
// machine-readable output paths (sndfig -format csv) use it, falling back
// to Render for free-text results.
type Tabular interface{ Table() *stats.Table }

// Experiment is one entry of the registry: a named, described runner with
// typed parameters. The registered value carries its zero params and acts
// as a prototype; Decode returns a new instance bound to the decoded
// params, and Run executes whatever the instance is bound to (the
// prototype runs the paper defaults). All three binaries dispatch through
// this interface, so adding a scenario means registering one component —
// not editing three tables.
type Experiment interface {
	// Name is the registry key, shared verbatim by sndfig -exp, sndsim
	// -exp, and the sndserve job API.
	Name() string
	// Describe is a one-line human summary for catalogs.
	Describe() string
	// DefaultParams returns the fully-defaulted params struct — the
	// configuration Run executes: the bound params with every unset field
	// filled in (on a registry prototype, the pure experiment defaults).
	DefaultParams() any
	// Decode strictly parses a JSON params document (unknown or mistyped
	// fields are errors naming the field) and returns an instance bound to
	// it. Empty input binds the zero params, which run the defaults.
	Decode(raw json.RawMessage) (Experiment, error)
	// Run executes the bound params on eng (nil falls back to the shared
	// runner.Default() pool).
	Run(ctx context.Context, eng *runner.Engine) (Result, error)
	// Schema describes the params fields — name, Go type, default value —
	// derived by reflection for the catalog endpoint and docs.
	Schema() []ParamField
}

// ParamField is one entry of an experiment's reflection-derived params
// schema.
type ParamField struct {
	Name    string `json:"name"`
	Type    string `json:"type"`
	Default any    `json:"default"`
}

// CatalogEntry is the catalog view of one registered experiment, served by
// sndserve's GET /experiments.
type CatalogEntry struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Params      []ParamField `json:"params"`
	Defaults    any          `json:"defaults"`
}

// defaulter is implemented by every params struct: applyDefaults fills
// zero-valued fields with the paper's configuration.
type defaulter interface{ applyDefaults() }

// definition is the generic Experiment implementation: a registered name
// and description plus the plan mapping params to the experiment's sweep.
// P is the params struct, S the trial sample and R the concrete result
// type.
type definition[P, S any, R Result] struct {
	name   string
	desc   string
	params P
	plan   func(P) Sweep[S, R]
}

func (d *definition[P, S, R]) Name() string     { return d.name }
func (d *definition[P, S, R]) Describe() string { return d.desc }

func (d *definition[P, S, R]) DefaultParams() any {
	p := d.params
	if dp, ok := any(&p).(defaulter); ok {
		dp.applyDefaults()
	}
	return p
}

func (d *definition[P, S, R]) Decode(raw json.RawMessage) (Experiment, error) {
	var p P
	if len(raw) > 0 {
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&p); err != nil {
			return nil, fmt.Errorf("%s params: %w", d.name, err)
		}
	}
	bound := *d
	bound.params = p
	return &bound, nil
}

func (d *definition[P, S, R]) Run(ctx context.Context, eng *runner.Engine) (Result, error) {
	// Tag the context with the registry name so the engine can offer the
	// sweep to a distribution backend: a remote worker re-derives the
	// trial function by looking this name up in its own registry.
	r, err := d.plan(d.params).run(runner.WithJobExperiment(ctx, d.name), eng)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// runCells executes the given cells of the bound params' sweep (see
// RunCells).
func (d *definition[P, S, R]) runCells(ctx context.Context, eng *runner.Engine,
	sweepID string, cells []runner.Cell) ([]runner.CellSample, error) {
	s := d.plan(d.params)
	return runner.RunCells(ctx, eng, s.spec(), sweepID, cells, s.Trial)
}

func (d *definition[P, S, R]) Schema() []ParamField {
	def := reflect.ValueOf(d.DefaultParams())
	t := def.Type()
	out := make([]ParamField, 0, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() {
			continue
		}
		out = append(out, ParamField{
			Name:    f.Name,
			Type:    f.Type.String(),
			Default: def.Field(i).Interface(),
		})
	}
	return out
}

// The package registry. Registration happens in catalog.go's init, so no
// locking is needed: the maps are read-only once the package is loaded.
var (
	registryByName = map[string]Experiment{}
	registryOrder  []Experiment
)

// Register adds one experiment definition: a name, a one-line description,
// and the plan building the experiment's sweep from its params. P is the
// params struct (zero values mean paper defaults), S the trial sample and
// R the concrete result type. The built-in catalog registers through it at
// init; external packages may add experiments the same way before serving
// traffic. Duplicate names are a programming error and panic.
func Register[P, S any, R Result](name, desc string, plan func(P) Sweep[S, R]) {
	if _, dup := registryByName[name]; dup {
		panic("exp: duplicate experiment " + name)
	}
	d := &definition[P, S, R]{name: name, desc: desc, plan: plan}
	registryByName[name] = d
	registryOrder = append(registryOrder, d)
}

// cellRunner is implemented by every registered definition: it executes
// leased cells of the bound params' sweep.
type cellRunner interface {
	runCells(ctx context.Context, eng *runner.Engine, sweepID string, cells []runner.Cell) ([]runner.CellSample, error)
}

// RunCells executes specific cells of one experiment's sweep — the worker
// half of distributed sweep execution. The caller supplies what a dist
// lease carries: the registry experiment name, the sweep's canonical
// params document, the content-addressed sweep ID, and the cells to run.
// The params go through the registry's strict decoder, the experiment's
// plan builds its sweep, and runner.RunCells checks the lease and runs
// exactly those cells; nothing is reduced.
func RunCells(ctx context.Context, eng *runner.Engine, experiment string,
	params []byte, sweepID string, cells []runner.Cell) ([]runner.CellSample, error) {
	e, ok := Lookup(experiment)
	if !ok {
		return nil, fmt.Errorf("exp: unknown experiment %q", experiment)
	}
	bound, err := e.Decode(params)
	if err != nil {
		return nil, fmt.Errorf("exp: %s cell params: %w", experiment, err)
	}
	return bound.(cellRunner).runCells(ctx, eng, sweepID, cells)
}

// Lookup resolves a registered experiment by name.
func Lookup(name string) (Experiment, bool) {
	e, ok := registryByName[name]
	return e, ok
}

// Names returns every registered name, sorted. sndfig -list, sndsim -list,
// and sndserve's catalog all derive from it, so the three views cannot
// disagree.
func Names() []string {
	out := make([]string, 0, len(registryByName))
	for name := range registryByName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// All returns every registered experiment in registration order — the
// curated sequence sndfig -all prints.
func All() []Experiment {
	return append([]Experiment(nil), registryOrder...)
}

// Catalog returns the full catalog, sorted by name.
func Catalog() []CatalogEntry {
	out := make([]CatalogEntry, 0, len(registryByName))
	for _, name := range Names() {
		e := registryByName[name]
		out = append(out, CatalogEntry{
			Name:        e.Name(),
			Description: e.Describe(),
			Params:      e.Schema(),
			Defaults:    e.DefaultParams(),
		})
	}
	return out
}

// DecodeCLI builds a bound experiment from a CLI invocation: an explicit
// JSON params document plus the shared -trials/-seed flags. The flags apply
// only where they mean something — the params struct has the field and the
// document does not already set it — so `-params '{"Seed":5}'` wins over
// the -seed default, and experiments without a Trials knob ignore the
// override instead of rejecting it. trials <= 0 means "experiment default".
func DecodeCLI(name, paramsJSON string, trials int, seed int64) (Experiment, error) {
	e, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown experiment %q (see -list)", name)
	}
	doc := map[string]json.RawMessage{}
	if paramsJSON != "" {
		if err := json.Unmarshal([]byte(paramsJSON), &doc); err != nil {
			return nil, fmt.Errorf("%s params: %w", name, err)
		}
	}
	has := func(field string) bool {
		for _, f := range e.Schema() {
			if f.Name == field {
				return true
			}
		}
		return false
	}
	if _, set := doc["Trials"]; !set && trials > 0 && has("Trials") {
		doc["Trials"] = json.RawMessage(fmt.Sprintf("%d", trials))
	}
	if _, set := doc["Seed"]; !set && has("Seed") {
		doc["Seed"] = json.RawMessage(fmt.Sprintf("%d", seed))
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	// Decode the merged document through the registry's strict decoder, so
	// a typoed field in -params fails the same way it does over HTTP.
	return e.Decode(raw)
}

// WarnIfDegraded prints the shared degraded-sweep warning when the sweep
// behind r lost trials to the panic-retry budget. Implemented once against
// Result.Health so every binary reports degradation identically.
func WarnIfDegraded(w io.Writer, name string, r Result) {
	if h := r.Health(); h.Degraded() {
		fmt.Fprintf(w, "warning: %s sweep degraded: %s\n", name, h)
	}
}
