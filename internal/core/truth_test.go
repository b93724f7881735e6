package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/urbandata/datapolygamy/internal/dataset"
	"github.com/urbandata/datapolygamy/internal/spatial"
	"github.com/urbandata/datapolygamy/internal/urban"
)

// truthScores scores a relationship graph's edges against the generator's
// labels (urban.Label). An attribute function carries its attribute's
// label; a count function (density, unique) is unlabelled, and an edge with
// an unlabelled endpoint is counted in Edges alone.
type truthScores struct {
	Edges      int // all edges
	Noise      int // edges between two attributes, one of them noise: certain false discoveries
	SameLatent int // edges between two attributes of one latent: what should be found
	Sign       int // same-latent edges whose score has the planted sign
}

// TestGraphTruthScores builds the default relationship graph of the
// graph-wide benchmark corpus (40 open-style data sets, structure seed 1,
// latent seed 7, 16-grid city, 3 months, read back from CSV as the
// benchmark reads them) and scores its edges against the generator's truth.
// The row is pinned, so a change that moves the answers must say how it
// moves it; and whatever else moves, nearly every same-latent edge must
// carry the planted sign, the product of its two attributes' signs.
func TestGraphTruthScores(t *testing.T) {
	city, err := spatial.Generate(spatial.GridConfig(1, 16))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2011, time.January, 1, 0, 0, 0, 0, time.UTC)
	end := start.AddDate(0, 3, 0)
	const latentSeed = 7
	w := urban.GenerateWeather(latentSeed+9000, start, end, urban.DefaultHurricanes())
	act := urban.GenerateActivity(latentSeed+9100, start, w.Hours)
	truth := map[string]urban.Label{}
	ds, err := urban.GenerateOpen(urban.OpenConfig{
		Seed: 1, N: 40, City: city, Start: start, End: end, Weather: w, Activity: act, Truth: truth,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Options{City: city, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, d := range ds {
		var buf bytes.Buffer
		if err := dataset.WriteCSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		read, err := dataset.ReadCSV(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AddDataset(read); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildGraph(Clause{}); err != nil {
		t.Fatal(err)
	}
	g, ok := f.RelGraph()
	if !ok {
		t.Fatal("no graph published")
	}

	label := func(dataset, spec string) (urban.Label, bool) {
		attr, ok := strings.CutPrefix(spec, "avg_")
		if !ok {
			return urban.Label{}, false // a count function
		}
		l, ok := truth[dataset+"/"+attr]
		if !ok {
			t.Fatalf("function %s/%s has no label", dataset, spec)
		}
		return l, true
	}
	var got truthScores
	for _, e := range g.Edges() {
		got.Edges++
		l1, ok1 := label(e.Dataset1, e.Spec1)
		l2, ok2 := label(e.Dataset2, e.Spec2)
		switch {
		case !ok1 || !ok2:
		case l1.Noise() || l2.Noise():
			got.Noise++
		case l1.Latent == l2.Latent:
			got.SameLatent++
			if planted := l1.Sign * l2.Sign; planted > 0 && e.Tau > 0 || planted < 0 && e.Tau < 0 {
				got.Sign++
			}
		}
	}
	t.Logf("edges %d, noise endpoint %d, same latent %d (planted sign %d)", got.Edges, got.Noise, got.SameLatent, got.Sign)
	if want := (truthScores{Edges: 2208, Noise: 1412, SameLatent: 409, Sign: 400}); got != want {
		t.Errorf("truth scores %+v, want %+v", got, want)
	}
	if got.SameLatent == 0 || float64(got.Sign) < 0.95*float64(got.SameLatent) {
		t.Errorf("%d of %d same-latent edges carry the planted sign, want at least 95%%", got.Sign, got.SameLatent)
	}
}
