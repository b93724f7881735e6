package urban

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/temporal"
)

// OpenConfig controls generation of the NYC Open-style corpus: a large
// number of smaller spatio-temporal data sets with ~8 attributes each
// (Section 6, "NYC Open"), used for the performance and pruning
// experiments (Figures 8, 9, 11).
type OpenConfig struct {
	Seed       int64
	N          int              // number of data sets; 0 => 300
	City       *spatial.CityMap // required
	Start, End time.Time        // zero => 2011-01-01 .. 2013-01-01
	Weather    *Weather         // shared latent; nil => generated from Seed
	Activity   *Activity        // shared latent; nil => generated from Seed

	// Truth, when non-nil, receives the label of every generated attribute,
	// keyed "<data set>/<attribute>" (e.g. "open_003/attr_02"). Filling it
	// draws nothing, so the corpus is the same with it or without it.
	Truth map[string]Label
}

// Label is the generator's truth about one open-style attribute: the shared
// latent it tracks and the sign it tracks it with, or noise (Latent == "",
// Sign == 0). Two attributes of one latent are genuinely related, with the
// product of their signs as the relationship's direction; an attribute of
// noise is related to nothing.
type Label struct {
	Latent string // "precip", "temperature", "wind", "snow", "activity"; "" for noise
	Sign   int    // +1 or -1; 0 for noise
}

// Noise reports whether the attribute is independent noise.
func (l Label) Noise() bool { return l.Latent == "" }

// GenerateOpen builds the corpus. Roughly a third of all attributes track a
// shared latent signal (weather or city activity) with random sign and
// strength — these give rise to genuine relationships — while the rest are
// independent noise, providing the large space of spurious candidate
// relationships the significance test must prune.
func GenerateOpen(cfg OpenConfig) ([]*dataset.Dataset, error) {
	if cfg.City == nil {
		return nil, fmt.Errorf("urban: OpenConfig.City is required")
	}
	if cfg.N <= 0 {
		cfg.N = 300
	}
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	if cfg.End.IsZero() {
		cfg.End = time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := cfg.Weather
	if w == nil {
		w = GenerateWeather(cfg.Seed+9000, cfg.Start, cfg.End, DefaultHurricanes())
	}
	act := cfg.Activity
	if act == nil {
		act = GenerateActivity(cfg.Seed+9100, cfg.Start, w.Hours)
	}

	latents := []openLatent{
		{"precip", w.Precip}, {"temperature", w.Temperature}, {"wind", w.WindSpeed},
		{"snow", w.SnowDepth}, {"activity", act.Level},
	}

	out := make([]*dataset.Dataset, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		d, err := generateOpenDataset(rng, i, cfg, w, latents)
		if err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// openLatent is one shared signal open-style attributes may track, under
// the name its attributes' labels carry.
type openLatent struct {
	name   string
	series []float64
}

func generateOpenDataset(rng *rand.Rand, idx int, cfg OpenConfig, w *Weather, latents []openLatent) (*dataset.Dataset, error) {
	// Spatial resolution mix: most open data sets are city-level series or
	// already aggregated to zip codes (Section 6.1's observation).
	var sres spatial.Resolution
	switch r := rng.Float64(); {
	case r < 0.45:
		sres = spatial.City
	case r < 0.85:
		sres = spatial.ZipCode
	default:
		sres = spatial.GPS
	}
	tresChoices := []temporal.Resolution{temporal.Day, temporal.Week, temporal.Month, temporal.Hour}
	tres := tresChoices[rng.Intn(len(tresChoices))]
	if sres == spatial.ZipCode && tres == temporal.Hour {
		tres = temporal.Day // keep zip-level data sets small
	}

	name := fmt.Sprintf("open_%03d", idx)
	nAttrs := 1 + rng.Intn(15) // mean ~8
	attrs := make([]string, nAttrs)
	type attrModel struct {
		latent []float64 // nil => pure noise
		sign   float64
		scale  float64
	}
	models := make([]attrModel, nAttrs)
	for a := range attrs {
		attrs[a] = fmt.Sprintf("attr_%02d", a)
		m := attrModel{sign: 1, scale: 1 + rng.Float64()*9}
		var label Label
		if rng.Float64() < 0.35 {
			l := latents[rng.Intn(len(latents))]
			m.latent = l.series
			if rng.Float64() < 0.5 {
				m.sign = -1
			}
			label = Label{Latent: l.name, Sign: int(m.sign)}
		}
		models[a] = m
		if cfg.Truth != nil {
			cfg.Truth[name+"/"+attrs[a]] = label
		}
	}

	d := &dataset.Dataset{
		Name:        name,
		SpatialRes:  sres,
		TemporalRes: tres,
		Attrs:       attrs,
	}

	// One tuple per (region, time step), with zip-level data subsampled to
	// keep each data set under ~1 GB-equivalent smallness.
	stepSeconds := map[temporal.Resolution]int64{
		temporal.Hour: 3600, temporal.Day: 86400,
		temporal.Week: 7 * 86400, temporal.Month: 30 * 86400,
	}[tres]
	startTS := cfg.Start.Unix()
	endTS := cfg.End.Unix()
	nSteps := int((endTS - startTS) / stepSeconds)

	nRegions := 1
	keepP := 1.0
	if sres == spatial.ZipCode {
		nRegions = cfg.City.NumRegions(spatial.ZipCode)
		keepP = math.Min(1, 3000/float64(nRegions*nSteps))
	} else if sres == spatial.GPS {
		nRegions = 4 // a few samples per step at random points
	}

	for s := 0; s < nSteps; s++ {
		ts := startTS + int64(s)*stepSeconds
		hourStep := w.StepOf(ts)
		if hourStep < 0 {
			hourStep = 0
		}
		for r := 0; r < nRegions; r++ {
			if keepP < 1 && rng.Float64() > keepP {
				continue
			}
			vals := make([]float64, nAttrs)
			for a, m := range models {
				noise := rng.NormFloat64()
				if m.latent != nil {
					lv := m.latent[hourStep]
					vals[a] = m.sign*lv*m.scale + noise*m.scale*0.4
				} else {
					vals[a] = noise * m.scale
				}
			}
			tup := dataset.Tuple{TS: ts + rng.Int63n(stepSeconds), Values: vals, Region: r}
			switch sres {
			case spatial.City:
				tup.Region = 0
			case spatial.GPS:
				p := cfg.City.RandomPoint(rng)
				tup.X, tup.Y = p.X, p.Y
				tup.Region = -1
			}
			d.Tuples = append(d.Tuples, tup)
		}
	}
	if len(d.Tuples) == 0 {
		// Guarantee non-emptiness for degenerate configs.
		d.Tuples = append(d.Tuples, dataset.Tuple{TS: startTS, Values: make([]float64, nAttrs)})
	}
	_, err := d.Validate()
	return d, err
}
