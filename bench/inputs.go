package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// The city is a constant of the benchmark, like the hardware: every corpus
// of every seed lives on the same 16x16-grid city, and the servers are
// started with the matching -seed/-grid.
const (
	citySeed = 1
	cityGrid = 16
)

var corpusStart = time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)

// sizes fixes the corpus shapes. Only -quick (the harness smoke test)
// shrinks them; a measured run always uses fullSizes.
type sizes struct {
	deepMonths int     // ingest-deep: urban collection length
	deepScale  float64 // and record volume
	wideN      int     // graph-wide: number of open-style data sets
	wideMonths int
	demoMonths int // fleet workloads: urban collection length
	demoScale  float64
	heldDays   int // append-follow: days per appended slice
	opensDeep  int // snapshot opens per pass
	opensWide  int
	pairSample int // graph-wide replay: entry pairs re-tested one by one
	// Set-up repetitions per run (setup_s is their median).
	setupsBatch, setupsFleet int
}

var (
	fullSizes  = sizes{deepMonths: 12, deepScale: 0.1, wideN: 40, wideMonths: 3, demoMonths: 2, demoScale: 0.1, heldDays: 7, opensDeep: 50, opensWide: 12, pairSample: 2000, setupsBatch: 3, setupsFleet: 2}
	quickSizes = sizes{deepMonths: 1, deepScale: 0.02, wideN: 6, wideMonths: 1, demoMonths: 1, demoScale: 0.02, heldDays: 3, opensDeep: 2, opensWide: 2, pairSample: 50, setupsBatch: 1, setupsFleet: 1}
)

func fixedCity() (*spatial.CityMap, error) {
	return spatial.Generate(spatial.GridConfig(citySeed, cityGrid))
}

// urbanCorpus is the nine-data-set urban collection; the seed drives the
// weather, activity and every record drawn from them.
func urbanCorpus(seed int64, city *spatial.CityMap, months int, scale float64) ([]*dataset.Dataset, error) {
	col, err := urban.Generate(urban.Config{
		Seed: seed, City: city, Start: corpusStart, End: corpusStart.AddDate(0, months, 0), Scale: scale,
	})
	if err != nil {
		return nil, err
	}
	return col.Datasets, nil
}

// openCorpus is the "many small data sets" corpus. Which data sets exist —
// their resolutions, attribute counts and which attributes follow a latent
// signal — is a constant of the benchmark (structure seed 1), because the
// cost of indexing and of the all-pairs graph swings 2-10x with that draw
// and a ruler must not. The workload seed drives the latent signals
// themselves (weather and city activity), and through them the values of
// every attribute that can form a real relationship.
func openCorpus(seed int64, city *spatial.CityMap, n, months int) ([]*dataset.Dataset, error) {
	end := corpusStart.AddDate(0, months, 0)
	w := urban.GenerateWeather(seed+9000, corpusStart, end, urban.DefaultHurricanes())
	act := urban.GenerateActivity(seed+9100, corpusStart, w.Hours)
	return urban.GenerateOpen(urban.OpenConfig{
		Seed: 1, N: n, City: city, Start: corpusStart, End: end, Weather: w, Activity: act,
	})
}

// writeCorpus writes one <name>.csv per data set into dir and returns the
// total CSV bytes. The system under test only ever sees these files.
func writeCorpus(dir string, ds []*dataset.Dataset) (int64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	var total int64
	for _, d := range ds {
		blob, err := encodeCSV(d)
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, d.Name+".csv"), blob, 0o644); err != nil {
			return 0, err
		}
		total += int64(len(blob))
	}
	return total, nil
}

func encodeCSV(d *dataset.Dataset) ([]byte, error) {
	var buf bytes.Buffer
	if err := dataset.WriteCSV(&buf, d); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", d.Name, err)
	}
	return buf.Bytes(), nil
}

// corpusFiles lists a corpus directory in the order polygamyd registers it
// (sorted glob), so in-process and fleet workloads agree on data set order.
func corpusFiles(dir string) ([]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no .csv files in %s", dir)
	}
	sort.Strings(files)
	return files, nil
}

// heldBack splits the demo corpus for append-follow. Weather — the hourly
// feed that defines the corpus end — stays whole; every other data set
// keeps back its last two slices of heldDays each, to be appended during
// the run. No append therefore moves the corpus end: each lands in the
// partially filled last tile of its own data set, the common case of a
// feed that trails the fastest one.
type heldBack struct {
	initial []*dataset.Dataset
	// slices[round][i] is the CSV body appended to names[i] in that round.
	names  []string
	slices [2][][]byte
	bytes  int64 // total slice bytes
}

func holdBack(ds []*dataset.Dataset, end time.Time, heldDays int) (heldBack, error) {
	var hb heldBack
	var corpusMax int64
	for _, d := range ds {
		if d.Name == "weather" {
			_, corpusMax, _ = d.TimeRange()
		}
	}
	cut := [3]int64{end.AddDate(0, 0, -2*heldDays).Unix(), end.AddDate(0, 0, -heldDays).Unix(), corpusMax + 1}
	for _, d := range ds {
		if d.Name == "weather" {
			hb.initial = append(hb.initial, d)
			continue
		}
		base := *d
		base.Tuples = nil
		parts := [2]dataset.Dataset{base, base}
		for _, t := range d.Tuples {
			switch {
			case t.TS < cut[0]:
				base.Tuples = append(base.Tuples, t)
			case t.TS < cut[1]:
				parts[0].Tuples = append(parts[0].Tuples, t)
			case t.TS < cut[2]:
				parts[1].Tuples = append(parts[1].Tuples, t)
			}
			// Tuples past the weather feed's last hour would move the
			// corpus end; they are dropped.
		}
		if len(base.Tuples) == 0 || len(parts[0].Tuples) == 0 || len(parts[1].Tuples) == 0 {
			// A feed too sparse to split (weekly gas prices on a short
			// quick corpus) is registered whole and never appended.
			hb.initial = append(hb.initial, d)
			continue
		}
		hb.initial = append(hb.initial, &base)
		hb.names = append(hb.names, d.Name)
		for r := range parts {
			blob, err := encodeCSV(&parts[r])
			if err != nil {
				return hb, err
			}
			hb.slices[r] = append(hb.slices[r], blob)
			hb.bytes += int64(len(blob))
		}
	}
	if len(hb.names) == 0 {
		return hb, fmt.Errorf("no data set could be split for appending")
	}
	return hb, nil
}

// querySpec is one relationship query as the HTTP API takes it.
type querySpec struct {
	Sources []string   `json:"sources"`
	Targets []string   `json:"targets"`
	Clause  clauseSpec `json:"clause"`
	Trace   bool       `json:"trace,omitempty"`
}

// clauseSpec is the subset of the wire clause the schedules vary. The zero
// value is the default clause: alpha 0.05, 1,000 restricted permutations,
// adaptive stop.
type clauseSpec struct {
	Classes          []string `json:"classes,omitempty"`
	Alpha            float64  `json:"alpha,omitempty"`
	Correction       string   `json:"correction,omitempty"`
	SkipSignificance bool     `json:"skipSignificance,omitempty"`
}

// signaturePool is every distinct query the serve-mixed schedule draws
// from: each unordered data set pair under both feature classes, salient
// only and extreme only, a third of them with Benjamini-Hochberg correction
// and a third at alpha 0.01. Which signature gets which modifier and which
// popularity rank (the shuffle) is a constant of the benchmark: answers
// differ 100x in size, so a per-seed ranking would decide the hit latency.
// The workload seed drives the data and the draws from the ranking.
func signaturePool(names []string) []querySpec {
	rng := rand.New(rand.NewSource(1))
	names = append([]string(nil), names...)
	sort.Strings(names)
	var pool []querySpec
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			for _, classes := range [][]string{nil, {"salient"}, {"extreme"}} {
				q := querySpec{Sources: []string{names[i]}, Targets: []string{names[j]},
					Clause: clauseSpec{Classes: classes}}
				switch rng.Intn(3) {
				case 1:
					q.Clause.Correction = "bh"
				case 2:
					q.Clause.Alpha = 0.01
				}
				pool = append(pool, q)
			}
		}
	}
	rng.Shuffle(len(pool), func(a, b int) { pool[a], pool[b] = pool[b], pool[a] })
	return pool
}

// zipfSchedule draws n pool indexes Zipf(1.1): rank 0 is the most popular
// signature. Repeats are what the query cache and the router's signature
// affinity exist for.
func zipfSchedule(poolSize, n int, rng *rand.Rand) []int {
	z := rand.NewZipf(rng, 1.1, 1, uint64(poolSize-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}
