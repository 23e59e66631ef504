package httpapi

import (
	"context"
	"fmt"
	"iter"
	"sort"
	"sync"

	"diggsim/internal/apiv1"
	"diggsim/internal/dataset"
	"diggsim/internal/digg"
	"diggsim/internal/graph"
)

// ScrapeConfig controls the crawler.
type ScrapeConfig struct {
	// FrontPageLimit and UpcomingLimit bound how many stories to pull
	// from each queue (0 = a sensible default of 200/900, the paper's
	// sample sizes). Ignored when All is set.
	FrontPageLimit int
	UpcomingLimit  int
	// All walks the full /v1/stories listing by cursor instead of the
	// two queues, collecting the entire corpus (including stale
	// stories no longer visible in either queue).
	All bool
	// PageSize is the cursor page size used for listing crawls
	// (default 200).
	PageSize int
	// Workers is the number of concurrent fetchers (default 8).
	Workers int
	// TopUsers is how many reputation entries to fetch (default 1020).
	TopUsers int
}

func (c ScrapeConfig) withDefaults() ScrapeConfig {
	if c.FrontPageLimit <= 0 {
		c.FrontPageLimit = 200
	}
	if c.UpcomingLimit <= 0 {
		c.UpcomingLimit = 900
	}
	if c.PageSize <= 0 {
		c.PageSize = 200
	}
	if c.Workers <= 0 {
		c.Workers = 8
	}
	if c.TopUsers <= 0 {
		c.TopUsers = 1020
	}
	return c
}

// collectIDs drains a cursor-page iterator into story ids, stopping
// once limit ids are collected (limit <= 0 means exhaust the cursor).
// Generation-stamped cursors make the walk stable against the live
// writer: no story is seen twice and none is skipped within a
// generation, unlike the offset loops this replaced.
func collectIDs(pages iter.Seq2[apiv1.StoriesPage, error], limit int) ([]digg.StoryID, error) {
	var ids []digg.StoryID
	for page, err := range pages {
		if err != nil {
			return nil, err
		}
		for _, s := range page.Stories {
			ids = append(ids, s.ID)
			if limit > 0 && len(ids) >= limit {
				return ids, nil
			}
		}
	}
	return ids, nil
}

// Scrape crawls a diggd server the way the paper crawled Digg: list the
// front page and the upcoming queue, fetch each story's chronological
// vote list, then fetch the fan links of every user seen voting. The
// result converts to a dataset.Dataset for offline analysis. All
// listings iterate v1 cursors.
func Scrape(ctx context.Context, c *Client, cfg ScrapeConfig) (*dataset.Dataset, error) {
	cfg = cfg.withDefaults()
	var ids []digg.StoryID
	var err error
	if cfg.All {
		ids, err = collectIDs(c.Stories(ctx, cfg.PageSize), 0)
		if err != nil {
			return nil, fmt.Errorf("httpapi: listing stories: %w", err)
		}
	} else {
		front, err := collectIDs(c.FrontPagePages(ctx, cfg.PageSize), cfg.FrontPageLimit)
		if err != nil {
			return nil, fmt.Errorf("httpapi: scraping front page: %w", err)
		}
		upcoming, err := collectIDs(c.UpcomingPages(ctx, cfg.PageSize), cfg.UpcomingLimit)
		if err != nil {
			return nil, fmt.Errorf("httpapi: scraping upcoming queue: %w", err)
		}
		ids = append(front, upcoming...)
	}

	// Fetch story details concurrently.
	details, err := fetchAll(ctx, cfg.Workers, ids, func(ctx context.Context, id digg.StoryID) (apiv1.StoryDetail, error) {
		return c.Story(ctx, id)
	})
	if err != nil {
		return nil, fmt.Errorf("httpapi: scraping stories: %w", err)
	}

	// Collect every voter, then fetch their fan links (the paper's
	// February-2008 augmentation of the social network snapshot).
	voterSet := make(map[digg.UserID]struct{})
	for _, d := range details {
		for _, v := range d.VoteList {
			voterSet[v.Voter] = struct{}{}
		}
	}
	voters := make([]digg.UserID, 0, len(voterSet))
	for u := range voterSet {
		voters = append(voters, u)
	}
	sort.Slice(voters, func(i, j int) bool { return voters[i] < voters[j] })

	type fanResult struct {
		user digg.UserID
		fans []digg.UserID
	}
	fanLists, err := fetchAll(ctx, cfg.Workers, voters, func(ctx context.Context, u digg.UserID) (fanResult, error) {
		fans, err := c.Fans(ctx, u)
		return fanResult{user: u, fans: fans}, err
	})
	if err != nil {
		return nil, fmt.Errorf("httpapi: scraping fan links: %w", err)
	}

	topUsers, err := c.TopUsers(ctx, cfg.TopUsers)
	if err != nil {
		return nil, fmt.Errorf("httpapi: scraping top users: %w", err)
	}

	// Assemble the dataset. Fan links become (fan -> user) edges.
	b := &graph.Builder{}
	for _, fr := range fanLists {
		b.EnsureNodes(int(fr.user) + 1)
		for _, fan := range fr.fans {
			if err := b.AddEdge(fan, fr.user); err != nil {
				return nil, err
			}
		}
	}
	var stories []*digg.Story
	seen := make(map[digg.StoryID]bool, len(details))
	for _, d := range details {
		if seen[d.ID] {
			continue // a story can sit in both crawled queues
		}
		seen[d.ID] = true
		s := &digg.Story{
			ID:          d.ID,
			Title:       d.Title,
			Submitter:   d.Submitter,
			SubmittedAt: digg.Minutes(d.SubmittedAt),
			Promoted:    d.Promoted,
		}
		if d.Promoted {
			s.PromotedAt = digg.Minutes(d.PromotedAt)
		}
		for _, v := range d.VoteList {
			b.EnsureNodes(int(v.Voter) + 1)
			s.Votes = append(s.Votes, digg.Vote{Voter: v.Voter, At: digg.Minutes(v.At)})
		}
		stories = append(stories, s)
	}
	sort.Slice(stories, func(i, j int) bool { return stories[i].ID < stories[j].ID })
	return dataset.Assemble(b.Build(), stories, topUsers), nil
}

// fetchAll runs fetch over items with a bounded worker pool, preserving
// input order in the results. The first error cancels the remaining
// work.
func fetchAll[T any, R any](ctx context.Context, workers int, items []T, fetch func(context.Context, T) (R, error)) ([]R, error) {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make([]R, len(items))
	work := make(chan int)
	errCh := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range work {
				r, err := fetch(ctx, items[idx])
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					cancel()
					return
				}
				results[idx] = r
			}
		}()
	}
	for i := range items {
		select {
		case <-ctx.Done():
		case work <- i:
			continue
		}
		break
	}
	close(work)
	wg.Wait()
	select {
	case err := <-errCh:
		return nil, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return results, nil
}
