package core

import (
	"errors"
	"sort"

	"diggsim/internal/digg"
	"diggsim/internal/graph"
	"diggsim/internal/stats"
)

// Score returns the predictor's probability that the example is
// interesting, suitable for ranking and threshold sweeps (the paper's
// binary tree output, read as a leaf class probability with Laplace
// smoothing).
func (p *Predictor) Score(ex Example) float64 {
	return p.Tree.ClassifyProb(attrVector(ex, p.Features))
}

// RankedStory pairs a story with its predicted interestingness score.
type RankedStory struct {
	StoryID digg.StoryID
	Score   float64
	Actual  bool // eventually interesting
}

// RankStories scores every story and returns them sorted by descending
// score — the recommendation-queue view of the predictor: which
// upcoming stories deserve front-page attention. Scores are only
// meaningful for stories that already have enough votes to populate the
// early-vote features (the paper uses >= 10); filter before ranking.
func (p *Predictor) RankStories(g *graph.Graph, stories []*digg.Story) []RankedStory {
	out := make([]RankedStory, len(stories))
	for i, s := range stories {
		ex := ExtractExample(g, s)
		out[i] = RankedStory{StoryID: s.ID, Score: p.Score(ex), Actual: ex.Interesting}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].StoryID < out[j].StoryID
	})
	return out
}

// AUC computes the area under the ROC curve of the predictor's scores
// over the examples; 0.5 is chance, 1.0 perfect ranking. It returns an
// error when the examples contain only one class.
func (p *Predictor) AUC(examples []Example) (float64, error) {
	scores := make([]float64, len(examples))
	labels := make([]bool, len(examples))
	for i, ex := range examples {
		scores[i] = p.Score(ex)
		labels[i] = ex.Interesting
	}
	auc := stats.AUC(scores, labels)
	if auc != auc { // NaN
		return 0, errors.New("core: AUC undefined (single-class sample)")
	}
	return auc, nil
}
