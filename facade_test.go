package datapolygamy

import (
	"path/filepath"
	"testing"
	"time"
)

func TestParseQueryFacade(t *testing.T) {
	q, err := ParseQuery("find relationships between taxi and weather where score >= 0.6 at (hour, city) using extreme features")
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.MinScore != 0.6 || len(q.Clause.Resolutions) != 1 || len(q.Clause.Classes) != 1 {
		t.Errorf("parsed query = %+v", q)
	}
	if q.Clause.Classes[0] != Extreme {
		t.Errorf("class = %v, want extreme", q.Clause.Classes[0])
	}
	if _, err := ParseQuery("not a query"); err == nil {
		t.Error("expected parse error")
	}
}

func TestCityFromPolygonsFacade(t *testing.T) {
	sq := func(x0, y0, x1, y1 float64) Polygon {
		return Polygon{{X: x0, Y: y0}, {X: x1, Y: y0}, {X: x1, Y: y1}, {X: x0, Y: y1}}
	}
	city, err := CityFromPolygons(PolygonConfig{
		Neighborhoods: []Polygon{sq(0, 0, 1, 1), sq(1, 0, 2, 1)},
		ZipCodes:      []Polygon{sq(0, 0, 2, 1)},
		GridW:         32, GridH: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if city.NumRegions(Neighborhood) != 2 || city.NumRegions(ZipCode) != 1 {
		t.Errorf("regions = %d/%d", city.NumRegions(Neighborhood), city.NumRegions(ZipCode))
	}
	if city.RegionOf(Point{X: 0.5, Y: 0.5}, Neighborhood) == city.RegionOf(Point{X: 1.5, Y: 0.5}, Neighborhood) {
		t.Error("two squares share a neighborhood")
	}
}

func TestRelationshipGraphFacade(t *testing.T) {
	fw := buildCorpus(t)
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, ok := fw.RelGraph(); ok {
		t.Fatal("RelGraph available before BuildGraph")
	}
	stats, err := fw.BuildGraph(Clause{Permutations: 50})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Pairs != 1 || stats.PairsComputed != 1 {
		t.Errorf("build stats = %+v", stats)
	}
	g, ok := fw.RelGraph()
	if !ok {
		t.Fatal("RelGraph not available after BuildGraph")
	}
	if g.NumEdges() == 0 {
		t.Fatal("corpus fixtures should produce graph edges")
	}
	if top := g.TopK(1, RankByScore); len(top) != 1 {
		t.Errorf("TopK = %v", top)
	}
	roll := g.Rollup()
	if len(roll) != 1 || roll[0].Dataset1 != "taxi" || roll[0].Dataset2 != "wind" {
		t.Errorf("rollup = %+v", roll)
	}
	if hops := g.KHop("taxi", 1); hops["wind"] != 1 {
		t.Errorf("KHop = %v", hops)
	}
}

// TestCorrectionFacade exercises the FDR surface through the public
// facade: parsing correction names, corrected queries carrying q-values,
// and q-value graph ranking.
func TestCorrectionFacade(t *testing.T) {
	for name, want := range map[string]Correction{
		"": NoCorrection, "none": NoCorrection, "bh": BenjaminiHochberg, "by": BenjaminiYekutieli,
	} {
		got, err := ParseCorrection(name)
		if err != nil || got != want {
			t.Errorf("ParseCorrection(%q) = %v, %v", name, got, err)
		}
	}
	if _, err := ParseCorrection("holm"); err == nil {
		t.Error("expected error for unknown correction")
	}

	q, err := ParseQuery("find relationships between taxi and wind where correction = bh and qvalue <= 0.1")
	if err != nil {
		t.Fatal(err)
	}
	if q.Clause.Correction != BenjaminiHochberg || q.Clause.MaxQ != 0.1 {
		t.Errorf("parsed corrected clause = %+v", q.Clause)
	}

	fw := buildCorpus(t)
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rels, _, err := fw.Query(Query{Clause: Clause{Permutations: 150, Correction: BenjaminiHochberg}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rels {
		if r.QValue < r.PValue {
			t.Errorf("facade query: q = %g < p = %g", r.QValue, r.PValue)
		}
	}
	if _, err := fw.BuildGraph(Clause{Permutations: 150, Correction: BenjaminiHochberg}); err != nil {
		t.Fatal(err)
	}
	g, _ := fw.RelGraph()
	top := g.TopK(3, RankByQValue)
	for i := 1; i < len(top); i++ {
		if top[i].QValue < top[i-1].QValue {
			t.Error("RankByQValue not ascending through the facade")
		}
	}
}

func TestFormatQueryFacade(t *testing.T) {
	q := Query{Sources: []string{"taxi"}, Clause: Clause{MinScore: 0.6}}
	text := FormatQuery(q)
	got, err := ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Clause.MinScore != 0.6 || len(got.Sources) != 1 || got.Sources[0] != "taxi" {
		t.Errorf("FormatQuery round trip = %+v (text %q)", got, text)
	}
}

func TestSnapshotLifecycleFacade(t *testing.T) {
	fw := buildCorpus(t)
	if _, err := fw.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := fw.BuildGraph(Clause{Permutations: 60}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "corpus.snap")
	if err := fw.Save(path); err != nil {
		t.Fatal(err)
	}

	// The manifest identifies the snapshot without loading it.
	m, err := ReadSnapshotManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Fingerprint.Seed != 7 || len(m.Fingerprint.Datasets) != 2 {
		t.Errorf("manifest fingerprint = %+v", m.Fingerprint)
	}
	if len(m.Sections) != 2 {
		t.Errorf("manifest sections = %+v", m.Sections)
	}

	// A fresh framework over the same corpus warm-starts from it.
	fw2 := buildCorpus(t)
	if err := fw2.Load(path); err != nil {
		t.Fatal(err)
	}
	if !fw2.Indexed() || fw2.NumFunctions() != fw.NumFunctions() {
		t.Error("loaded snapshot mismatch through facade")
	}
	g, _ := fw.RelGraph()
	if g2, ok := fw2.RelGraph(); !ok || !g2.Equal(g) {
		t.Error("graph Save/Load through the facade changed the graph")
	}
}

func TestJobManagerFacade(t *testing.T) {
	m := NewJobManager()
	j := m.Start("ingest", "taxi", func() (map[string]any, error) {
		return map[string]any{"ok": true}, nil
	})
	if j.Status != JobPending {
		t.Errorf("initial status = %v", j.Status)
	}
	got, done := m.Wait(j.ID, 5*time.Second)
	if !done || got.Status != JobDone {
		t.Fatalf("job = %+v", got)
	}
	if JobRunning.Terminal() || !JobFailed.Terminal() {
		t.Error("JobStatus.Terminal misclassifies states")
	}
}
