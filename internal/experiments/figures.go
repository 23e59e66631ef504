package experiments

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diggsim/internal/cascade"
	"diggsim/internal/core"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/mltree"
	"diggsim/internal/rng"
	"diggsim/internal/stats"
	"diggsim/internal/textplot"
)

func init() {
	register("fig1", "Vote time series of front-page stories", fig1)
	register("fig2a", "Histogram of final vote counts (front-page sample)", fig2a)
	register("fig2b", "User activity distributions (log-log)", fig2b)
	register("fig3a", "Story influence at submission / after 10 / after 20 votes", fig3a)
	register("fig3b", "In-network vote (cascade) distributions after 10/20/30 votes", fig3b)
	register("fig4", "Final votes vs. early in-network votes (inverse relation)", fig4)
	register("fig5", "C4.5 decision tree and 10-fold cross-validation", fig5)
	register("tab1", "Holdout prediction on top-user upcoming stories (§5.2)", tab1)
	register("fig6", "Fans vs. friends scatter (all users vs. top users)", fig6)
	register("text1", "Promotion boundary: 43-vote front-page floor / 42-vote queue ceiling", text1)
}

// errNoFrontPage reports an empty front-page sample.
var errNoFrontPage = errors.New("front-page sample is empty")

// fig1 samples the cumulative vote count of a handful of front-page
// stories over time, reproducing the queue-then-burst-then-saturate
// shape of Fig. 1.
func fig1(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	rr := rng.New(r.Seed)
	picks := rr.SampleWithoutReplacement(len(fp), min(5, len(fp)))
	sort.Ints(picks)
	horizon := r.DS.Config.Agent.Horizon
	if horizon == 0 {
		horizon = 5 * digg.Day
	}
	var series []textplot.Series
	step := int64(horizon) / 100
	if step < 1 {
		step = 1
	}
	var queueVotesAtPromotion, postDay1 []float64
	for _, idx := range picks {
		s := fp[idx]
		var xs, ys []float64
		for t := int64(0); t <= int64(horizon); t += step {
			xs = append(xs, float64(t))
			ys = append(ys, float64(s.VotedAtOrBefore(s.SubmittedAt+digg.Minutes(t))))
		}
		series = append(series, textplot.Series{
			Name: fmt.Sprintf("story %d", s.ID), X: xs, Y: ys,
		})
		queueVotesAtPromotion = append(queueVotesAtPromotion, float64(s.VotedAtOrBefore(s.PromotedAt)))
		postDay1 = append(postDay1,
			float64(s.VotedAtOrBefore(s.PromotedAt+digg.Day)-s.VotedAtOrBefore(s.PromotedAt)))
	}
	res.printf("%s", textplot.Plot(textplot.Config{
		Title:  "Fig 1: cumulative votes vs minutes since submission",
		XLabel: "minutes since submission",
		YLabel: "votes",
	}, series...))
	res.metric("stories_plotted", float64(len(picks)))
	res.metric("mean_votes_at_promotion", stats.Mean(queueVotesAtPromotion))
	res.metric("mean_votes_first_day_on_frontpage", stats.Mean(postDay1))
	res.printf("Shape check: slow accumulation in the queue, sharp acceleration at")
	res.printf("promotion, saturation after a few days (novelty decay).")
	res.finish()
	return res, nil
}

// fig2a is the histogram of final vote counts over the front-page
// sample; the paper reports ~20%% below 500 votes and ~20%% above 1500.
func fig2a(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	votes := make([]float64, len(fp))
	maxV := 0.0
	for i, s := range fp {
		votes[i] = float64(s.VoteCount())
		if votes[i] > maxV {
			maxV = votes[i]
		}
	}
	hi := math.Ceil(maxV/250) * 250
	if hi < 250 {
		hi = 250
	}
	h, err := stats.NewHistogram(votes, 0, hi, int(hi/250))
	if err != nil {
		return res, err
	}
	los, his := make([]float64, len(h.Bins)), make([]float64, len(h.Bins))
	counts := make([]int, len(h.Bins))
	for i, b := range h.Bins {
		los[i], his[i], counts[i] = b.Lo, b.Hi, b.Count
	}
	res.printf("%s", textplot.Histogram("Fig 2a: number of stories receiving x votes", 40, los, his, counts))
	below500 := frac(votes, func(v float64) bool { return v < 500 })
	above1500 := frac(votes, func(v float64) bool { return v > 1500 })
	above1000 := frac(votes, func(v float64) bool { return v > 1000 })
	res.metric("stories", float64(len(fp)))
	res.metric("frac_below_500", below500)
	res.metric("frac_above_1500", above1500)
	res.metric("frac_above_1000", above1000)
	res.metric("median_votes", stats.Median(votes))
	res.printf("Paper: ~20%% of front-page stories below 500 votes, ~20%% above 1500,")
	res.printf("~30%% above 1000 (Wu & Huberman's larger sample).")
	res.finish()
	return res, nil
}

// fig2b plots the per-user submission and vote count distributions on
// log-log axes; both are heavy-tailed.
func fig2b(r *Runner) (Result, error) {
	var res Result
	subs := map[digg.UserID]int{}
	votesBy := map[digg.UserID]int{}
	for _, s := range r.DS.Stories {
		if s.Promoted {
			subs[s.Submitter]++
		}
		for _, v := range s.Votes {
			votesBy[v.Voter]++
		}
	}
	subCounts := histSeries(subs)
	voteCounts := histSeries(votesBy)
	res.printf("%s", textplot.Plot(textplot.Config{
		Title:  "Fig 2b: # users making x submissions / votes (log-log)",
		XLabel: "# submissions or votes (x)",
		YLabel: "# users",
		LogX:   true, LogY: true,
	},
		textplot.Series{Name: "votes", X: voteCounts[0], Y: voteCounts[1]},
		textplot.Series{Name: "submissions", X: subCounts[0], Y: subCounts[1]},
	))
	var voteTail []float64
	for _, c := range votesBy {
		voteTail = append(voteTail, float64(c))
	}
	// Map order is random and the fit sums in input order: sort so the
	// exponent is bit-reproducible across runs.
	sort.Float64s(voteTail)
	fit, err := stats.FitPowerLawAuto(voteTail)
	if err == nil {
		res.metric("vote_powerlaw_alpha", fit.Alpha)
	}
	res.metric("distinct_voters", float64(len(votesBy)))
	res.metric("distinct_promoted_submitters", float64(len(subs)))
	maxVotes, maxSubs := 0, 0
	for _, c := range votesBy {
		if c > maxVotes {
			maxVotes = c
		}
	}
	for _, c := range subs {
		if c > maxSubs {
			maxSubs = c
		}
	}
	res.metric("max_votes_by_one_user", float64(maxVotes))
	res.metric("max_promotions_by_one_user", float64(maxSubs))
	res.printf("Paper: most users voted on one story; a few voted on well over a")
	res.printf("hundred. Submissions are even more skewed (top-user dominance).")
	res.finish()
	return res, nil
}

// fig3a reproduces the influence histograms: how many users can see a
// story through the Friends interface at submission, after 10 and after
// 20 votes.
func fig3a(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	var at1, at10, at20 []float64
	for _, s := range fp {
		voters := cascade.Voters(s)
		infl := cascade.InfluenceSeries(r.DS.Graph, voters, []int{1, 11, 21})
		at1 = append(at1, float64(infl[0]))
		at10 = append(at10, float64(infl[1]))
		at20 = append(at20, float64(infl[2]))
	}
	for _, panel := range []struct {
		name string
		data []float64
	}{{"at submission", at1}, {"after 10 votes", at10}, {"after 20 votes", at20}} {
		h, err := stats.NewHistogram(panel.data, 0, maxOf(panel.data)+1, 14)
		if err != nil {
			return res, err
		}
		los, his := make([]float64, len(h.Bins)), make([]float64, len(h.Bins))
		counts := make([]int, len(h.Bins))
		for i, b := range h.Bins {
			los[i], his[i], counts[i] = math.Round(b.Lo), math.Round(b.Hi), b.Count
		}
		res.printf("%s", textplot.Histogram("Fig 3a: story influence "+panel.name, 40, los, his, counts))
	}
	res.metric("frac_submitters_under_10_fans", frac(at1, func(v float64) bool { return v < 10 }))
	res.metric("frac_visible_to_200_after_10", frac(at10, func(v float64) bool { return v >= 200 }))
	res.metric("median_influence_after_20", stats.Median(at20))
	res.printf("Paper: just over half the stories came from submitters with fewer")
	res.printf("than ten fans; after ten votes almost half were visible to at least")
	res.printf("200 users through the Friends interface.")
	res.finish()
	return res, nil
}

// fig3b reproduces the cascade-size (in-network vote) histograms after
// 10, 20 and 30 votes.
func fig3b(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	all := cascade.AnalyzeAll(r.DS.Graph, fp)
	var in10, in20, in30 []float64
	for _, st := range all {
		in10 = append(in10, float64(st.InNet10))
		in20 = append(in20, float64(st.InNet20))
		in30 = append(in30, float64(st.InNet30))
	}
	for _, panel := range []struct {
		name string
		data []float64
		bins int
	}{{"after 10 votes", in10, 11}, {"after 20 votes", in20, 11}, {"after 30 votes", in30, 11}} {
		h, err := stats.NewHistogram(panel.data, 0, maxOf(panel.data)+1, panel.bins)
		if err != nil {
			return res, err
		}
		los, his := make([]float64, len(h.Bins)), make([]float64, len(h.Bins))
		counts := make([]int, len(h.Bins))
		for i, b := range h.Bins {
			los[i], his[i], counts[i] = math.Floor(b.Lo), math.Floor(b.Hi), b.Count
		}
		res.printf("%s", textplot.Histogram("Fig 3b: cascade size "+panel.name, 40, los, his, counts))
	}
	res.metric("frac_ge5_of_first10", frac(in10, func(v float64) bool { return v >= 5 }))
	res.metric("frac_ge10_of_first20", frac(in20, func(v float64) bool { return v >= 10 }))
	res.metric("frac_ge10_of_first30", frac(in30, func(v float64) bool { return v >= 10 }))
	res.printf("Paper: 30%% of stories had at least half of the first 10 votes")
	res.printf("in-network; 28%% had >=10 in-network of the first 20; 36%% had >=10")
	res.printf("of the first 30.")
	res.finish()
	return res, nil
}

// fig4 reproduces the inverse relationship between early in-network
// votes and final popularity, for the first 6, 10 and 20 votes.
func fig4(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	all := cascade.AnalyzeAll(r.DS.Graph, fp)
	for _, panel := range []struct {
		name string
		get  func(cascade.Stats) int
		key  string
	}{
		{"after 6 votes", func(s cascade.Stats) int { return s.InNet6 }, "spearman_v6"},
		{"after 10 votes", func(s cascade.Stats) int { return s.InNet10 }, "spearman_v10"},
		{"after 20 votes", func(s cascade.Stats) int { return s.InNet20 }, "spearman_v20"},
	} {
		groups := map[int][]float64{}
		var xs, ys []float64
		for _, st := range all {
			v := panel.get(st)
			groups[v] = append(groups[v], float64(st.FinalVotes))
			xs = append(xs, float64(v))
			ys = append(ys, float64(st.FinalVotes))
		}
		keys := make([]int, 0, len(groups))
		for k := range groups {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		var mx, my []float64
		for _, k := range keys {
			mx = append(mx, float64(k))
			my = append(my, stats.Median(groups[k]))
		}
		res.printf("%s", textplot.Plot(textplot.Config{
			Title:  "Fig 4: median final votes vs in-network votes " + panel.name,
			XLabel: "in-network votes",
			YLabel: "final votes (median)",
		}, textplot.Series{Name: "median", X: mx, Y: my}))
		rho, err := stats.Spearman(xs, ys)
		if err != nil {
			return res, err
		}
		res.metric(panel.key, rho)
	}
	// Contrast the extreme bands for the headline claim.
	var low, high []float64
	for _, st := range all {
		if st.InNet10 <= 2 {
			low = append(low, float64(st.FinalVotes))
		} else if st.InNet10 >= 8 {
			high = append(high, float64(st.FinalVotes))
		}
	}
	if len(low) > 0 && len(high) > 0 {
		res.metric("median_final_votes_low_innet10", stats.Median(low))
		res.metric("median_final_votes_high_innet10", stats.Median(high))
	}
	res.printf("Paper: a clear inverse relationship between interestingness and the")
	res.printf("fraction of in-network votes, visible already within 6-10 votes.")
	res.finish()
	return res, nil
}

// fig5 trains the paper's C4.5 classifier on the front-page sample
// (attributes v10 and fans1) and reports the tree plus 10-fold CV.
func fig5(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	examples := core.ExtractAll(r.DS.Graph, fp)
	p, err := core.Train(examples, nil, mltree.DefaultConfig())
	if err != nil {
		return res, err
	}
	res.printf("Fig 5: learned decision tree (paper: split on v10 <= 4, then v10 > 8,")
	res.printf("then fans1 <= 85):")
	res.printf("%s", p.Tree.String())
	cv, err := core.CrossValidate(examples, nil, mltree.DefaultConfig(), 10, rng.New(r.Seed))
	if err != nil {
		return res, err
	}
	res.metric("train_stories", float64(len(examples)))
	res.metric("cv_correct", float64(cv.Correct()))
	res.metric("cv_incorrect", float64(cv.Total()-cv.Correct()))
	res.metric("cv_accuracy", cv.Accuracy())
	res.metric("tree_leaves", float64(p.Tree.Leaves()))
	res.printf("Paper: 10-fold validation on 207 stories classified 174 correctly")
	res.printf("(84%%), misclassifying 33.")
	res.finish()
	return res, nil
}

// tab1 reproduces the §5.2 holdout: predict interestingness of
// top-user upcoming stories from early votes, and compare precision
// with the platform's own promotion decision.
func tab1(r *Runner) (Result, error) {
	var res Result
	fp := r.DS.FrontPage
	if len(fp) == 0 {
		return res, errNoFrontPage
	}
	examples := core.ExtractAll(r.DS.Graph, fp)
	p, err := core.Train(examples, nil, mltree.DefaultConfig())
	if err != nil {
		return res, err
	}
	cfg := core.DefaultHoldoutConfig(r.DS.Config.SnapshotAt)
	if cfg.SnapshotAt == 0 {
		// Loaded/scraped datasets carry no config; recover the snapshot
		// as the latest promotion time.
		for _, s := range r.DS.Stories {
			if s.Promoted && s.PromotedAt > cfg.SnapshotAt {
				cfg.SnapshotAt = s.PromotedAt
			}
		}
	}
	h := core.EvaluateHoldout(r.DS.Graph, r.DS.UpcomingAtSnapshot, r.DS.RankOf, p, cfg)
	res.printf("Holdout: upcoming-queue stories by top-100 users with >=10 votes at")
	res.printf("the snapshot; labels from final vote counts.")
	res.metric("kept_stories", float64(h.Kept))
	res.metric("tp", float64(h.Confusion.TP))
	res.metric("tn", float64(h.Confusion.TN))
	res.metric("fp", float64(h.Confusion.FP))
	res.metric("fn", float64(h.Confusion.FN))
	res.metric("accuracy", h.Confusion.Accuracy())
	res.metric("digg_promoted", float64(h.DiggPromoted))
	res.metric("digg_precision", h.DiggPrecision())
	res.metric("predictor_flagged_on_promoted", float64(h.PredictorOnPromoted))
	res.metric("predictor_precision_on_promoted", h.PredictorPrecisionOnPromoted())
	res.printf("Paper: 48 stories kept; TP=4 TN=32 FP=11 FN=1; of 14 Digg-promoted")
	res.printf("stories only 5 proved interesting (P=0.36) while the predictor's 7")
	res.printf("picks contained 4 (P=0.57).")
	res.finish()
	return res, nil
}

// fig6 reproduces the final (unnumbered) figure: fans+1 vs friends+1 on
// log-log axes for all users and for top users.
func fig6(r *Runner) (Result, error) {
	var res Result
	g := r.DS.Graph
	var allX, allY []float64
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		allX = append(allX, float64(g.OutDegree(u)+1))
		allY = append(allY, float64(g.InDegree(u)+1))
	}
	var topX, topY []float64
	topSet := map[digg.UserID]bool{}
	for i, u := range r.DS.TopUsers {
		if i >= 100 {
			break
		}
		topSet[u] = true
		topX = append(topX, float64(g.OutDegree(u)+1))
		topY = append(topY, float64(g.InDegree(u)+1))
	}
	res.printf("%s", textplot.Plot(textplot.Config{
		Title:  "Fig 6: fans+1 vs friends+1 (log-log)",
		XLabel: "friends+1",
		YLabel: "fans+1",
		LogX:   true, LogY: true,
	},
		textplot.Series{Name: "all users", X: allX, Y: allY},
		textplot.Series{Name: "top users", X: topX, Y: topY},
	))
	rho, err := stats.Spearman(allX, allY)
	if err != nil {
		return res, err
	}
	res.metric("spearman_friends_fans", rho)
	var topFans, restFans []float64
	for u := graph.NodeID(0); int(u) < g.NumNodes(); u++ {
		if topSet[u] {
			topFans = append(topFans, float64(g.InDegree(u)))
		} else {
			restFans = append(restFans, float64(g.InDegree(u)))
		}
	}
	res.metric("mean_fans_top100", stats.Mean(topFans))
	res.metric("mean_fans_rest", stats.Mean(restFans))
	res.printf("Paper: top users occupy the upper-right of the scatter — they have")
	res.printf("far more friends and fans than ordinary users.")
	res.finish()
	return res, nil
}

// text1 verifies the promotion boundary the paper observed in the data:
// every front-page story has >= 43 votes and every upcoming story has
// <= 42.
func text1(r *Runner) (Result, error) {
	var res Result
	minFront := math.Inf(1)
	maxUpcoming := 0.0
	for _, s := range r.DS.Stories {
		v := float64(s.VoteCount())
		if s.Promoted {
			if v < minFront {
				minFront = v
			}
		} else if v > maxUpcoming {
			maxUpcoming = v
		}
	}
	if math.IsInf(minFront, 1) {
		minFront = 0
	}
	res.metric("min_frontpage_votes", minFront)
	res.metric("max_upcoming_votes", maxUpcoming)
	res.printf("Paper: \"we did not see any front-page stories with fewer than 43")
	res.printf("votes, nor did we see any stories in the upcoming queue with more")
	res.printf("than 42 votes.\"")
	res.finish()
	return res, nil
}

// --- small helpers ---

func frac(xs []float64, pred func(float64) bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if pred(x) {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// histSeries converts a count map to (value, frequency) series sorted
// by value.
func histSeries[K comparable](m map[K]int) [2][]float64 {
	counts := map[int]int{}
	for _, c := range m {
		counts[c]++
	}
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var xs, ys []float64
	for _, k := range keys {
		xs = append(xs, float64(k))
		ys = append(ys, float64(counts[k]))
	}
	return [2][]float64{xs, ys}
}
