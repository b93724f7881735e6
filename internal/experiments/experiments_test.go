package experiments

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/urbandata/datapolygamy/internal/scalar"
)

// tinyEnv builds the smallest environment that exercises every experiment.
func tinyEnv() *Env {
	return NewEnv(Config{
		Seed:         1,
		Scale:        0.2,
		Months:       3,
		CityGrid:     24,
		Permutations: 40,
		OpenDatasets: 6,
	})
}

// The claim environment is long enough for the paper's quality claims:
// 12 months reach hurricane Irene and give the split-half test enough
// weeks (at tinyEnv's 3 months, (hour, city) reads p 0.073). It is built
// once and shared by the claim tests.
var (
	claimOnce sync.Once
	claim     *Env
)

func claimEnv(t *testing.T) *Env {
	t.Helper()
	if testing.Short() {
		t.Skip("claim tests build a 12-month corpus")
	}
	claimOnce.Do(func() {
		claim = NewEnv(Config{
			Seed:         1,
			Scale:        0.2,
			Months:       12,
			CityGrid:     24,
			Permutations: 250,
			OpenDatasets: 6,
		})
	})
	return claim
}

// TestFigure1Hurricanes: a hurricane line appears only when the window
// reaches its month, and Irene's day is the lowest of 2011.
func TestFigure1Hurricanes(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	var buf bytes.Buffer
	if err := RunFigure1(tinyEnv(), &buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "Irene") {
		t.Errorf("a 3-month window reports Irene:\n%s", buf.String())
	}
	buf.Reset()
	if err := RunFigure1(claimEnv(t), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "lowest 2011 day: 2011-08-28") {
		t.Errorf("the lowest 2011 day should be Irene's 2011-08-28:\n%s", out)
	}
	if strings.Contains(out, "Sandy") {
		t.Errorf("a 12-month window reports Sandy:\n%s", out)
	}
}

// TestFigure5Claim is Figure 5's caption: the taxi-density minima split
// into two persistence clusters, apart, and the days whose value is an
// outlier of the salient minima include a hurricane day.
func TestFigure5Claim(t *testing.T) {
	r, err := figure5(claimEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.lowN == 0 || r.highN == 0 {
		t.Errorf("persistence clusters of %d and %d minima, want both non-empty", r.lowN, r.highN)
	}
	if !(r.lowMax < r.highMin) {
		t.Errorf("low cluster ends at %.2f, high cluster starts at %.2f: not apart", r.lowMax, r.highMin)
	}
	hurricane := func(day string) bool {
		return slices.Contains([]string{"2011-08-27", "2011-08-28", "2012-10-29", "2012-10-30"}, day)
	}
	if !slices.ContainsFunc(r.extremeDays, hurricane) {
		t.Errorf("extreme negative days %v include no hurricane day", r.extremeDays)
	}
}

// TestCorrectnessClaim is Section 6.2: the two halves of the taxi density
// are strongly and significantly related at (hour, city) and
// (hour, neighborhood).
func TestCorrectnessClaim(t *testing.T) {
	rows, err := correctness(claimEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.m.Tau < 0.9 || !r.mc.Significant {
			t.Errorf("(hour, %v): tau %.2f p %.3f significant %v, want tau >= 0.9 and significant",
				r.sres, r.m.Tau, r.mc.PValue, r.mc.Significant)
		}
	}
}

// TestRobustnessClaim is Figure 12: the score between the taxi density and
// its noisy copy stays near 1 up to 10% of the IQR.
func TestRobustnessClaim(t *testing.T) {
	rows, err := robustness(claimEnv(t), scalar.Spec{Kind: scalar.Density})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 || rows[len(rows)-1].noise < 0.10 {
		t.Fatalf("sweep %v does not reach 10%% noise", rows)
	}
	for _, r := range rows {
		if r.m.Tau < 0.95 {
			t.Errorf("noise %.3f IQR: score %.2f, want >= 0.95", r.noise, r.m.Tau)
		}
	}
}

// TestPruningClaim is Figure 11: the significance test prunes at least 95%
// of the possible relationships on both corpora.
func TestPruningClaim(t *testing.T) {
	rows, err := pruning(claimEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.possible == 0 || r.pruned(r.significant) < 0.95 {
			t.Errorf("%s: %d of %d possible significant (pruned %.1f%%), want >= 95%% pruned",
				r.title, r.significant, r.possible, 100*r.pruned(r.significant))
		}
	}
}

// TestComparisonClaim is Section 6.4: on the event-only and conditional
// pairs the Data Polygamy score sees a relationship the global PCC misses.
func TestComparisonClaim(t *testing.T) {
	rows, err := comparison(claimEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, r := range rows {
		if r.label != "wind speed ~ taxi trips" && r.label != "precipitation ~ taxi trips" {
			continue
		}
		checked++
		if gap := math.Abs(r.tau) - math.Abs(r.pcc); !(gap >= 0.5) {
			t.Errorf("%s (%s): |tau| %.2f - |PCC| %.2f = %.2f, want >= 0.5",
				r.label, r.nature, math.Abs(r.tau), math.Abs(r.pcc), gap)
		}
	}
	if checked != 2 {
		t.Errorf("checked %d pairs, want 2", checked)
	}
}

// TestSignificanceClaim is the Section 6.3 significance-test study: the
// restricted test prunes every relationship of the fare tax, white noise,
// with the weather, and prunes relationships whose score is high.
func TestSignificanceClaim(t *testing.T) {
	st, err := significance(claimEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(st.tax) != 4 {
		t.Fatalf("%d fare-tax relationships, want 4", len(st.tax))
	}
	for _, r := range st.tax {
		if r.mc.Significant {
			t.Errorf("fare tax ~ %s: tau %.2f p %.3f is significant, want pruned", r.spec, r.m.Tau, r.mc.PValue)
		}
	}
	if len(st.pruned) == 0 {
		t.Error("no relationship with |tau| >= 0.6 at (week, city) was pruned")
	}
	t.Logf("high-|tau| pruned: %d", len(st.pruned))
}

func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	env := tinyEnv()
	for _, r := range All() {
		r := r
		t.Run(r.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := r.Run(env, &buf); err != nil {
				t.Fatalf("%s: %v", r.Name, err)
			}
			if buf.Len() == 0 {
				t.Fatalf("%s produced no output", r.Name)
			}
		})
	}
}

func TestFindAndAll(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Errorf("All() = %d experiments, want 10", len(all))
	}
	seen := map[string]bool{}
	for _, r := range all {
		if seen[r.Name] {
			t.Errorf("duplicate experiment %q", r.Name)
		}
		seen[r.Name] = true
		if Find(r.Name) == nil {
			t.Errorf("Find(%q) = nil", r.Name)
		}
	}
	if Find("nope") != nil {
		t.Error("Find of unknown name should be nil")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Errorf("withDefaults() = %+v, want %+v", c, d)
	}
	c = Config{Months: 3}.withDefaults()
	if c.Months != 3 || c.Scale != d.Scale {
		t.Error("partial config should keep explicit values and default the rest")
	}
}

func TestTable1Content(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	env := tinyEnv()
	var buf bytes.Buffer
	if err := RunTable1(env, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"taxi", "weather", "gas_prices", "twitter"} {
		if !strings.Contains(out, name) {
			t.Errorf("Table 1 output missing %q", name)
		}
	}
	if !strings.Contains(out, "228") {
		t.Error("Table 1 should show weather's 228 scalar functions")
	}
}

func TestEnvCaching(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	env := tinyEnv()
	c1, err := env.Collection()
	if err != nil {
		t.Fatal(err)
	}
	c2, err := env.Collection()
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Error("Collection must be cached")
	}
	f1, err := env.Framework()
	if err != nil {
		t.Fatal(err)
	}
	f2, err := env.Framework()
	if err != nil {
		t.Fatal(err)
	}
	if f1 != f2 {
		t.Error("Framework must be cached")
	}
}
