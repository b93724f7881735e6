package urban

import (
	"fmt"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
)

// Config controls collection generation.
type Config struct {
	Seed       int64
	City       *spatial.CityMap // nil => spatial.Generate(spatial.DefaultConfig(Seed))
	Start, End time.Time        // zero => 2011-01-01 .. 2013-01-01 (covers Irene and Sandy)
	Scale      float64          // record volume multiplier; 0 => 1.0 (laptop scale)
}

func (c Config) withDefaults() (Config, error) {
	if c.Start.IsZero() {
		c.Start = time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.End.IsZero() {
		c.End = time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)
	}
	if !c.End.After(c.Start) {
		return c, fmt.Errorf("urban: end %v not after start %v", c.End, c.Start)
	}
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.City == nil {
		city, err := spatial.Generate(spatial.DefaultConfig(c.Seed))
		if err != nil {
			return c, err
		}
		c.City = city
	}
	return c, nil
}

// Collection is the synthetic analogue of the paper's NYC Urban collection
// (Table 1): nine data sets plus the latent signals that generated them.
type Collection struct {
	Config   Config
	City     *spatial.CityMap
	Weather  *Weather
	Activity *Activity
	Gas      *Gas
	Speed    []float64 // hourly city traffic speed signal

	// Datasets in Table 1 order: gas_prices, collisions, complaints_311,
	// calls_911, citibike, weather, traffic_speed, taxi, twitter.
	Datasets []*dataset.Dataset
}

// Generate builds the full collection deterministically from cfg.
func Generate(cfg Config) (*Collection, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	w := GenerateWeather(cfg.Seed+100, cfg.Start, cfg.End, DefaultHurricanes())
	act := GenerateActivity(cfg.Seed+200, cfg.Start, w.Hours)
	gas := GenerateGas(cfg.Seed+300, cfg.Start, cfg.End)
	speed := SpeedSeries(cfg.Seed+400, w, act)

	// Collisions, 311, and 911 share one hot-spot sampler with the taxi
	// sampler's seed family, giving the spatially aligned features behind
	// the collisions/311/taxi relationships at neighborhood resolution.
	activitySampler := NewHotspotSampler(cfg.Seed+1+500, cfg.City, 5)

	col := &Collection{
		Config:   cfg,
		City:     cfg.City,
		Weather:  w,
		Activity: act,
		Gas:      gas,
		Speed:    speed,
	}
	col.Datasets = []*dataset.Dataset{
		gas.Dataset(),
		GenerateCollisions(cfg.Seed+500, cfg.Scale, cfg.City, w, act, activitySampler),
		GenerateComplaints("complaints_311", cfg.Seed+600, 8*cfg.Scale, 1.2, 0.5, w, act, activitySampler),
		GenerateComplaints("calls_911", cfg.Seed+700, 7*cfg.Scale, 0.8, 2.0, w, act, activitySampler),
		GenerateBike(cfg.Seed+800, cfg.Scale, cfg.City, w, act),
		w.WeatherDataset(cfg.Seed + 900),
		GenerateTraffic(cfg.Seed+1000, cfg.Scale, cfg.City, w, speed),
		GenerateTaxi(TaxiConfig{Seed: cfg.Seed + 1 + 500, Scale: cfg.Scale}, cfg.City, w, act, gas, speed),
		GenerateTwitter(cfg.Seed+1100, cfg.Scale, cfg.City, w, act),
	}
	for _, d := range col.Datasets {
		if _, err := d.Validate(); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// Dataset returns the named data set, or nil.
func (c *Collection) Dataset(name string) *dataset.Dataset {
	for _, d := range c.Datasets {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// IndexingOrder returns the data sets in the order used by Figure 8's
// incremental-indexing experiment, where the taxi data arrives 4th (the
// large jump) and the weather data 8th (the attribute-count jump).
func (c *Collection) IndexingOrder() []*dataset.Dataset {
	names := []string{
		"gas_prices", "complaints_311", "citibike", "taxi", "collisions",
		"calls_911", "traffic_speed", "weather", "twitter",
	}
	out := make([]*dataset.Dataset, 0, len(names))
	for _, n := range names {
		if d := c.Dataset(n); d != nil {
			out = append(out, d)
		}
	}
	return out
}

// TableRow summarises one data set for the Table 1 reproduction.
type TableRow struct {
	Name            string
	Records         int
	ScalarFunctions int
	SpatialRes      string
	TemporalRes     string
	PaperRecords    string // the paper's record count, for side-by-side
}

// Table1 returns the collection summary matching the layout of Table 1.
func (c *Collection) Table1() []TableRow {
	paper := map[string]string{
		"gas_prices":     "749",
		"collisions":     "330 K",
		"complaints_311": "7.40 M",
		"calls_911":      "6.75 M",
		"citibike":       "10.40 M",
		"weather":        "64 K",
		"traffic_speed":  "395 M",
		"taxi":           "868 M",
		"twitter":        "1.10 B",
	}
	rows := make([]TableRow, 0, len(c.Datasets))
	for _, d := range c.Datasets {
		rows = append(rows, TableRow{
			Name:            d.Name,
			Records:         len(d.Tuples),
			ScalarFunctions: d.NumScalarFunctions(),
			SpatialRes:      d.SpatialRes.String(),
			TemporalRes:     d.TemporalRes.String(),
			PaperRecords:    paper[d.Name],
		})
	}
	return rows
}
