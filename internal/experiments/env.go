// Package experiments regenerates the quality artifacts of the paper's
// evaluation (Section 6 and Appendix E) on the synthetic NYC-style corpus:
// Table 1, Figures 1, 5, 11 and 12, and Sections 6.2-6.4. Each experiment
// prints the rows the paper reports; absolute numbers differ (synthetic vs
// real data) but the shapes — who wins, where relationships appear — are
// the reproduction target, and the package tests assert them. The timing
// figures (7-10) are measured by the bench/ harness, not here.
package experiments

import (
	"fmt"
	"io"
	"time"

	"github.com/urbandata/datapolygamy/internal/core"
	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// Config sizes the experiments.
type Config struct {
	Seed         int64
	Scale        float64 // urban record-volume multiplier (1.0 = laptop scale)
	Permutations int     // Monte Carlo permutations (paper: 1000)
	Months       int     // corpus window length in months (paper window: 24, 2011-2012)
	CityGrid     int     // city grid side; 96 gives ~300 regions (NYC-like)
	OpenDatasets int     // size of the NYC Open-style corpus (paper: 300)
}

// DefaultConfig returns a configuration that runs the full suite in
// minutes on a laptop while preserving every qualitative shape. Pass
// larger values (Months: 24, CityGrid: 96, Permutations: 1000,
// OpenDatasets: 300) to approach paper scale.
func DefaultConfig() Config {
	return Config{
		Seed:         1,
		Scale:        0.5,
		Permutations: 250,
		Months:       24,
		CityGrid:     48,
		OpenDatasets: 60,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Scale <= 0 {
		c.Scale = d.Scale
	}
	if c.Permutations <= 0 {
		c.Permutations = d.Permutations
	}
	if c.Months <= 0 {
		c.Months = d.Months
	}
	if c.CityGrid <= 0 {
		c.CityGrid = d.CityGrid
	}
	if c.OpenDatasets <= 0 {
		c.OpenDatasets = d.OpenDatasets
	}
	return c
}

// Env lazily builds and caches the shared corpus state.
type Env struct {
	Cfg Config

	city       *spatial.CityMap
	collection *urban.Collection
	open       []*dataset.Dataset
	fw         *core.Framework // framework over the urban collection
}

// NewEnv creates an experiment environment.
func NewEnv(cfg Config) *Env {
	return &Env{Cfg: cfg.withDefaults()}
}

// Start returns the corpus window start (2011-01-01, covering Irene and —
// with Months >= 22 — Sandy).
func (e *Env) Start() time.Time {
	return time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
}

// End returns the corpus window end.
func (e *Env) End() time.Time {
	return e.Start().AddDate(0, e.Cfg.Months, 0)
}

// City returns the shared synthetic city.
func (e *Env) City() (*spatial.CityMap, error) {
	if e.city != nil {
		return e.city, nil
	}
	n := e.Cfg.CityGrid
	city, err := spatial.Generate(spatial.Config{
		Seed:  e.Cfg.Seed,
		GridW: n, GridH: n,
		Neighborhoods: n * 3, ZipCodes: n * 3,
	})
	if err != nil {
		return nil, err
	}
	e.city = city
	return city, nil
}

// Collection returns the shared NYC Urban-style collection.
func (e *Env) Collection() (*urban.Collection, error) {
	if e.collection != nil {
		return e.collection, nil
	}
	city, err := e.City()
	if err != nil {
		return nil, err
	}
	col, err := urban.Generate(urban.Config{
		Seed:  e.Cfg.Seed,
		City:  city,
		Start: e.Start(),
		End:   e.End(),
		Scale: e.Cfg.Scale,
	})
	if err != nil {
		return nil, err
	}
	e.collection = col
	return col, nil
}

// Open returns the shared NYC Open-style corpus.
func (e *Env) Open() ([]*dataset.Dataset, error) {
	if e.open != nil {
		return e.open, nil
	}
	city, err := e.City()
	if err != nil {
		return nil, err
	}
	col, err := e.Collection()
	if err != nil {
		return nil, err
	}
	ds, err := urban.GenerateOpen(urban.OpenConfig{
		Seed:     e.Cfg.Seed + 7,
		N:        e.Cfg.OpenDatasets,
		City:     city,
		Start:    e.Start(),
		End:      e.End(),
		Weather:  col.Weather,
		Activity: col.Activity,
	})
	if err != nil {
		return nil, err
	}
	e.open = ds
	return ds, nil
}

// Framework returns the indexed framework over the urban collection.
func (e *Env) Framework() (*core.Framework, error) {
	if e.fw != nil {
		return e.fw, nil
	}
	col, err := e.Collection()
	if err != nil {
		return nil, err
	}
	fw, err := newFramework(e, col.Datasets...)
	if err != nil {
		return nil, err
	}
	if _, err := fw.BuildIndex(); err != nil {
		return nil, err
	}
	e.fw = fw
	return fw, nil
}

// newFramework builds an unindexed framework over the given data sets.
func newFramework(e *Env, ds ...*dataset.Dataset) (*core.Framework, error) {
	city, err := e.City()
	if err != nil {
		return nil, err
	}
	fw, err := core.New(core.Options{City: city, Seed: e.Cfg.Seed})
	if err != nil {
		return nil, err
	}
	for _, d := range ds {
		if err := fw.AddDataset(d); err != nil {
			return nil, err
		}
	}
	return fw, nil
}

// section prints an experiment header.
func section(w io.Writer, title string) {
	fmt.Fprintf(w, "\n=== %s ===\n", title)
}

// Runner is one named experiment.
type Runner struct {
	Name  string
	Title string
	Run   func(*Env, io.Writer) error
}

// All returns every experiment in report order.
func All() []Runner {
	return []Runner{
		{"table1", "Table 1 — NYC Urban collection", RunTable1},
		{"figure1", "Figure 1 — taxi trips vs wind speed (Irene & Sandy)", RunFigure1},
		{"figure5", "Figure 5 — persistence diagram of the taxi-density minima", RunFigure5},
		{"figure11", "Figure 11 — relationship pruning", RunFigure11},
		{"figure12", "Figure 12 — robustness to noise (taxi density)", RunFigure12},
		{"figureE1", "Figures I-III — robustness (unique, miles, fare)", RunFigureE1},
		{"correctness", "Section 6.2 — correctness (taxi 2011 vs 2012)", RunCorrectness},
		{"interesting", "Section 6.3 — interesting relationships", RunInteresting},
		{"significance", "Section 6.3 — significance test effectiveness", RunSignificance},
		{"comparison", "Section 6.4 — comparison against PCC / MI / DTW", RunComparison},
	}
}

// Find returns the named experiment, or nil.
func Find(name string) *Runner {
	for _, r := range All() {
		if r.Name == name {
			return &r
		}
	}
	return nil
}
