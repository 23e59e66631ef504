package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"diggsim/internal/dataset"
)

var testRunner *Runner

func getRunner(t *testing.T) *Runner {
	t.Helper()
	if testRunner == nil {
		ds, err := dataset.Generate(dataset.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		testRunner = &Runner{DS: ds, Seed: 99}
	}
	return testRunner
}

func TestIDsRegistered(t *testing.T) {
	want := []string{
		"abl-features", "abl-graph", "abl-mechanism", "abl-policy", "abl-threshold",
		"ext1", "ext2", "ext3", "ext4",
		"fig1", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6",
		"tab1", "text1",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("IDs = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs = %v want %v", got, want)
		}
	}
	for _, id := range got {
		if Title(id) == "" {
			t.Errorf("empty title for %s", id)
		}
	}
}

func TestUnknownID(t *testing.T) {
	r := getRunner(t)
	if _, err := r.Run("nope"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

func TestFig1(t *testing.T) {
	res, err := getRunner(t).Run("fig1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "Fig 1") {
		t.Error("missing figure")
	}
	if res.Metrics["stories_plotted"] < 1 {
		t.Error("no stories plotted")
	}
	// Front-page votes accumulate much faster than queue votes.
	if res.Metrics["mean_votes_first_day_on_frontpage"] <= res.Metrics["mean_votes_at_promotion"] {
		t.Errorf("no front-page acceleration: %v vs %v",
			res.Metrics["mean_votes_first_day_on_frontpage"], res.Metrics["mean_votes_at_promotion"])
	}
}

func TestFig2a(t *testing.T) {
	res, err := getRunner(t).Run("fig2a")
	if err != nil {
		t.Fatal(err)
	}
	below, above := res.Metrics["frac_below_500"], res.Metrics["frac_above_1500"]
	// Paper bands are ~20% each on the full corpus; the small test
	// corpus only needs the shape: both tails populated, neither
	// dominant.
	if below <= 0 || below > 0.5 {
		t.Errorf("frac_below_500 = %v, out of plausible band", below)
	}
	if above <= 0 || above > 0.5 {
		t.Errorf("frac_above_1500 = %v, out of plausible band", above)
	}
	if res.Metrics["median_votes"] < 250 || res.Metrics["median_votes"] > 2500 {
		t.Errorf("median votes = %v, implausible scale", res.Metrics["median_votes"])
	}
}

func TestFig2b(t *testing.T) {
	res, err := getRunner(t).Run("fig2b")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["distinct_voters"] < 100 {
		t.Errorf("distinct voters = %v", res.Metrics["distinct_voters"])
	}
	// Skew: the most active voter far exceeds the median user (1 vote).
	if res.Metrics["max_votes_by_one_user"] < 10 {
		t.Errorf("vote activity not skewed: max = %v", res.Metrics["max_votes_by_one_user"])
	}
	// The science must be bit-reproducible: every rerun on the same
	// corpus yields the same bits for every metric, the power-law
	// exponent included (its fit sums in input order).
	for i := 0; i < 5; i++ {
		again, err := getRunner(t).Run("fig2b")
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Metrics) != len(res.Metrics) {
			t.Fatalf("rerun %d: %d metrics, want %d", i, len(again.Metrics), len(res.Metrics))
		}
		for name, v := range res.Metrics {
			if got := again.Metrics[name]; math.Float64bits(got) != math.Float64bits(v) {
				t.Errorf("rerun %d: %s = %v (bits %#x), want %v (bits %#x)",
					i, name, got, math.Float64bits(got), v, math.Float64bits(v))
			}
		}
	}
}

func TestFig3a(t *testing.T) {
	res, err := getRunner(t).Run("fig3a")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["frac_visible_to_200_after_10"] <= 0 {
		t.Error("no stories widely visible after 10 votes")
	}
	f := res.Metrics["frac_submitters_under_10_fans"]
	if f < 0 || f > 1 {
		t.Errorf("fraction out of range: %v", f)
	}
}

func TestFig3b(t *testing.T) {
	res, err := getRunner(t).Run("fig3b")
	if err != nil {
		t.Fatal(err)
	}
	// Paper: 30% of stories have >=5 of first 10 in-network. Shape: the
	// fraction is strictly between 0 and 1.
	f := res.Metrics["frac_ge5_of_first10"]
	if f <= 0 || f >= 0.9 {
		t.Errorf("frac_ge5_of_first10 = %v", f)
	}
}

func TestFig4InverseRelation(t *testing.T) {
	res, err := getRunner(t).Run("fig4")
	if err != nil {
		t.Fatal(err)
	}
	// The headline result: negative rank correlation at every horizon.
	for _, key := range []string{"spearman_v6", "spearman_v10", "spearman_v20"} {
		if rho := res.Metrics[key]; rho >= 0 {
			t.Errorf("%s = %v; want negative (inverse relation)", key, rho)
		}
	}
	if res.Metrics["median_final_votes_low_innet10"] <= res.Metrics["median_final_votes_high_innet10"] {
		t.Errorf("band medians not inverted: low=%v high=%v",
			res.Metrics["median_final_votes_low_innet10"],
			res.Metrics["median_final_votes_high_innet10"])
	}
}

func TestFig5Classifier(t *testing.T) {
	res, err := getRunner(t).Run("fig5")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["cv_accuracy"] < 0.6 {
		t.Errorf("cv accuracy = %v; paper achieved 0.84", res.Metrics["cv_accuracy"])
	}
	if !strings.Contains(res.Text, "v10") {
		t.Error("tree does not mention v10")
	}
}

func TestTab1Holdout(t *testing.T) {
	res, err := getRunner(t).Run("tab1")
	if err != nil {
		t.Fatal(err)
	}
	kept := res.Metrics["kept_stories"]
	if kept == 0 {
		t.Skip("no holdout stories under small config")
	}
	total := res.Metrics["tp"] + res.Metrics["tn"] + res.Metrics["fp"] + res.Metrics["fn"]
	if total != kept {
		t.Errorf("confusion total %v != kept %v", total, kept)
	}
}

func TestFig6(t *testing.T) {
	res, err := getRunner(t).Run("fig6")
	if err != nil {
		t.Fatal(err)
	}
	// Top users have more fans than the rest (paper's scatter).
	if res.Metrics["mean_fans_top100"] <= res.Metrics["mean_fans_rest"] {
		t.Errorf("top users not better connected: %v vs %v",
			res.Metrics["mean_fans_top100"], res.Metrics["mean_fans_rest"])
	}
}

func TestText1Boundary(t *testing.T) {
	res, err := getRunner(t).Run("text1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["min_frontpage_votes"] < 43 {
		t.Errorf("front-page floor violated: %v", res.Metrics["min_frontpage_votes"])
	}
	if res.Metrics["max_upcoming_votes"] > 42 {
		t.Errorf("upcoming ceiling violated: %v", res.Metrics["max_upcoming_votes"])
	}
}

func TestExt1Threshold(t *testing.T) {
	res, err := getRunner(t).Run("ext1")
	if err != nil {
		t.Fatal(err)
	}
	// At low lambda the scale-free graph must sustain more infection.
	if res.Metrics["sf_prevalence_low_lambda"] <= res.Metrics["er_prevalence_low_lambda"] {
		t.Errorf("threshold contrast missing: sf=%v er=%v",
			res.Metrics["sf_prevalence_low_lambda"], res.Metrics["er_prevalence_low_lambda"])
	}
	// At high lambda both are endemic.
	if res.Metrics["er_prevalence_high_lambda"] < 0.2 {
		t.Errorf("ER graph not endemic at high lambda: %v", res.Metrics["er_prevalence_high_lambda"])
	}
}

func TestExt2ModularTrapping(t *testing.T) {
	res, err := getRunner(t).Run("ext2")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["modular_mean_cascade"] >= res.Metrics["homogeneous_mean_cascade"] {
		t.Errorf("modular graph did not trap cascades: %v vs %v",
			res.Metrics["modular_mean_cascade"], res.Metrics["homogeneous_mean_cascade"])
	}
	ef := res.Metrics["mean_escape_fraction"]
	if ef < 0 || ef > 1 {
		t.Errorf("escape fraction = %v", ef)
	}
}

func TestExt3ShallowChains(t *testing.T) {
	res, err := getRunner(t).Run("ext3")
	if err != nil {
		t.Fatal(err)
	}
	// Chains must be bounded far below the vote counts (hundreds):
	// propagation is breadth-first through fan lists, not long chains.
	if res.Metrics["max_depth"] > 25 {
		t.Errorf("max cascade depth = %v; should be shallow", res.Metrics["max_depth"])
	}
	if res.Metrics["median_max_depth"] <= 0 {
		t.Errorf("median depth = %v; cascades exist on the front page", res.Metrics["median_max_depth"])
	}
}

func TestExt4HalfLifeRecovery(t *testing.T) {
	res, err := getRunner(t).Run("ext4")
	if err != nil {
		t.Fatal(err)
	}
	// The behaviour model decays with a one-day half-life; the fit over
	// raw vote logs must land in the right ballpark (hours, not minutes
	// or weeks). Individual-story noise is large, so allow a wide band.
	med := res.Metrics["median_half_life_hours"]
	if med < 8 || med > 72 {
		t.Errorf("median fitted half-life = %v h; configured 24 h", med)
	}
	if res.Metrics["stories_fitted"] < 10 {
		t.Errorf("only %v stories fitted", res.Metrics["stories_fitted"])
	}
}

func TestAblGraphSubstrate(t *testing.T) {
	res, err := getRunner(t).Run("abl-graph")
	if err != nil {
		t.Fatal(err)
	}
	ba := res.Metrics["ba_spearman_v10_final"]
	er := res.Metrics["er_spearman_v10_final"]
	if ba >= 0 {
		t.Errorf("BA substrate correlation = %v; want negative", ba)
	}
	if ba >= er {
		t.Errorf("BA correlation %v should be more negative than ER %v", ba, er)
	}
	if res.Metrics["ba_frac_dull_frontpage"] <= res.Metrics["er_frac_dull_frontpage"] {
		t.Errorf("dull-story effect missing: ba=%v er=%v",
			res.Metrics["ba_frac_dull_frontpage"], res.Metrics["er_frac_dull_frontpage"])
	}
}

func TestAblFeatures(t *testing.T) {
	res, err := getRunner(t).Run("abl-features")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Text, "v10+fans1 (paper)") {
		t.Error("missing paper feature set")
	}
	for k, v := range res.Metrics {
		if strings.HasPrefix(k, "cv_accuracy") && (v < 0.4 || v > 1) {
			t.Errorf("%s = %v", k, v)
		}
	}
}

func TestAblMechanism(t *testing.T) {
	res, err := getRunner(t).Run("abl-mechanism")
	if err != nil {
		t.Fatal(err)
	}
	combined := res.Metrics["spearman_v10_final_combined"]
	if combined >= 0 {
		t.Errorf("combined correlation = %v; want negative", combined)
	}
}

func TestAblPolicy(t *testing.T) {
	res, err := getRunner(t).Run("abl-policy")
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics["classic_promoted"] <= 0 {
		t.Error("classic corpus promoted nothing")
	}
	// The diversity rule must promote no more than classic (it only
	// discounts votes).
	if res.Metrics["diversity_promoted"] > res.Metrics["classic_promoted"] {
		t.Errorf("diversity promoted more than classic: %v vs %v",
			res.Metrics["diversity_promoted"], res.Metrics["classic_promoted"])
	}
}

func TestAblThresholdStability(t *testing.T) {
	res, err := getRunner(t).Run("abl-threshold")
	if err != nil {
		t.Fatal(err)
	}
	accAt := func(th int) (float64, bool) {
		v, ok := res.Metrics[fmt.Sprintf("cv_accuracy_t%d", th)]
		return v, ok
	}
	a520, ok := accAt(520)
	if !ok {
		t.Skip("labels degenerate at 520 under this corpus")
	}
	for _, th := range []int{460, 580} {
		if a, ok := accAt(th); ok {
			if a < a520-0.25 {
				t.Errorf("accuracy collapses at threshold %d: %.3f vs %.3f at 520", th, a, a520)
			}
		}
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll regenerates corpora; skipped in -short")
	}
	results, err := getRunner(t).RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(IDs()) {
		t.Fatalf("results = %d", len(results))
	}
	for _, res := range results {
		if res.Text == "" {
			t.Errorf("%s produced empty report", res.ID)
		}
		if len(res.Metrics) == 0 {
			t.Errorf("%s produced no metrics", res.ID)
		}
	}
}
