package apiv1

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diggsim/internal/digg"
)

var update = flag.Bool("update", false, "rewrite golden contract fixtures")

// contractCases enumerates one canonical instance of every v1 wire
// shape. The golden files under testdata/ pin the JSON rendering: a
// diff in any fixture is a wire-format change and requires a version
// note in docs/api.md (enforced by the contract-guard CI job).
func contractCases() map[string]any {
	cursor := CursorPayload{Kind: CursorStories, Gen: 7, Pos: 100, Ver: 3}.Encode()
	summary := StorySummary{
		ID: 42, Title: "breaking: cursors are opaque \"tokens\"", Submitter: 7,
		SubmittedAt: 1440, Promoted: true, PromotedAt: 1500, Votes: 58,
	}
	unpromoted := StorySummary{
		ID: 43, Title: "still upcoming", Submitter: 9, SubmittedAt: 1450, Votes: 4,
	}
	return map[string]any{
		"story_summary": summary,
		"story_detail": StoryDetail{
			StorySummary: summary,
			VoteList:     []VoteRecord{{Voter: 7, At: 1440}, {Voter: 12, At: 1447}},
		},
		"stories_page": StoriesPage{
			Stories: []StorySummary{summary, unpromoted}, Total: 923, NextCursor: cursor,
		},
		"stories_page_last": StoriesPage{
			Stories: []StorySummary{unpromoted}, Total: 2,
		},
		"user_info": UserInfo{ID: 7, Fans: 120, Friends: 14, Rank: 3},
		"user_links_page": UserLinksPage{
			ID: 7, Users: []digg.UserID{1, 5, 9}, Total: 120,
			NextCursor: CursorPayload{Kind: CursorLinks, Pos: 3}.Encode(),
		},
		"topusers_page": TopUsersPage{
			Users: []digg.UserID{7, 1, 12}, Total: 1020,
			NextCursor: CursorPayload{Kind: CursorTopUsers, Gen: 7, Pos: 3}.Encode(),
		},
		"submit_request": SubmitRequest{Submitter: 7, Title: "a story", Interest: 0.8, At: 1440},
		"digg_request":   DiggRequest{Voter: 12, At: 1447},
		"digg_response":  DiggResponse{InNetwork: true, Promoted: false, Votes: 5},
		"batch_digg_request": BatchDiggRequest{Diggs: []BatchDiggItem{
			{Story: 42, Voter: 12, At: 1447},
			{Story: 42, Voter: 13},
		}},
		"batch_digg_response": BatchDiggResponse{Results: []BatchDiggResult{
			{InNetwork: true, Promoted: false, Votes: 5},
			{Error: &Error{Code: CodeAlreadyVoted, Message: "digg: user already voted on story"}},
		}},
		"batch_submit_request": BatchSubmitRequest{Stories: []SubmitRequest{
			{Submitter: 7, Title: "a story", Interest: 0.8, At: 1440},
		}},
		"batch_submit_response": BatchSubmitResponse{Results: []BatchSubmitResult{
			{Story: &unpromoted},
			{Error: &Error{Code: CodeUnknownUser, Message: "digg: user outside social graph"}},
		}},
		"error_not_found": ErrorEnvelope{Error: &Error{
			Code: CodeNotFound, Message: "digg: no story 999",
		}},
		"error_rate_limited": ErrorEnvelope{Error: &Error{
			Code: CodeRateLimited, Message: "rate limit exceeded", RetryAfter: 2,
		}},
		"error_invalid_cursor": ErrorEnvelope{Error: &Error{
			Code: CodeInvalidCursor, Message: "cursor is malformed or was issued by a different endpoint",
		}},
		"error_invalid_argument": ErrorEnvelope{Error: &Error{
			Code: CodeInvalidArgument, Message: "limit must be a non-negative integer",
		}},
		"error_read_only_replica": ErrorEnvelope{Error: &Error{
			Code: CodeReadOnlyReplica, Message: "this node is a read-only follower; write to the primary",
		}},
		"repl_stats": ReplStats{
			Role: "follower", Primary: "http://primary:8080",
			StalenessSeconds: 0.254,
			Shards: []ReplShardStats{
				{Shard: 0, AppliedLSN: 48122, ShippedLSN: 48123, LagSeconds: 0.254, LastContactAgeSeconds: 0.004, CommitTraceID: "4f2a9c01d3e87b65"},
				{Shard: 1, AppliedLSN: 47990, ShippedLSN: 47990, LagSeconds: 0.121, LastContactAgeSeconds: 0.004},
			},
		},
		"error_with_trace": ErrorEnvelope{Error: &Error{
			Code: CodeInternal, Message: "wal: append failed",
			TraceID: "4f2a9c01d3e87b65",
		}},
		"timeline": TimelineDump{
			WindowSeconds: 300, StepSeconds: 10, IntervalSeconds: 1,
			Series: []TimelineSeries{
				{
					Name:   "diggsim_freshness_write_to_frontpage_visible_seconds",
					Labels: `source="http"`, Kind: "histogram",
					Points: []TimelinePoint{
						{AtUnixMillis: 1151712000000, IntervalSeconds: 10, Delta: 412,
							Rate: 41.2, P50Millis: 1.8, P99Millis: 14.5, SumMillis: 980.4},
						{AtUnixMillis: 1151712010000, IntervalSeconds: 10, Delta: 398,
							Rate: 39.8, P50Millis: 1.9, P99Millis: 16.2, SumMillis: 1004.1},
					},
				},
				{
					Name: "diggsim_http_requests_total", Kind: "counter",
					Points: []TimelinePoint{
						{AtUnixMillis: 1151712000000, IntervalSeconds: 10, Delta: 120410, Rate: 12041},
					},
				},
				{
					Name: "diggsim_snapshot_view_generation", Kind: "gauge",
					Points: []TimelinePoint{
						{AtUnixMillis: 1151712000000, IntervalSeconds: 10, Value: 48122},
					},
				},
			},
			Burn: []BurnStatus{{
				Name:      "frontpage_freshness",
				Family:    "diggsim_freshness_write_to_frontpage_visible_seconds",
				Objective: 0.99, ThresholdMillis: 250,
				Short:    BurnWindow{WindowSeconds: 300, CoveredSeconds: 300, Total: 12400, Bad: 31, Burn: 0.25},
				Long:     BurnWindow{WindowSeconds: 3600, CoveredSeconds: 900, Total: 36100, Bad: 40, Burn: 0.1108},
				Window:   BurnWindow{WindowSeconds: 300, CoveredSeconds: 300, Total: 12400, Bad: 31, Burn: 0.25},
				Degraded: false,
			}},
		},
		"obs_dump": ObsDump{
			SlowTotal: 3,
			SlowTraces: []ObsTrace{{
				ID: "4f2a9c01d3e87b65", Method: "POST", Path: "/v1/diggs:batch",
				Status: 200, StartUnixMillis: 1151712000000, DurationMillis: 312.5,
				Spans: []ObsSpan{
					{Name: "decode", OffsetMillis: 0.01, DurationMillis: 1.2},
					{Name: "apply", OffsetMillis: 1.3, DurationMillis: 298.4},
					{Name: "republish", OffsetMillis: 299.8, DurationMillis: 12.6},
				},
			}},
		},
	}
}

// TestContractGoldenFixtures pins every v1 shape to its golden JSON:
// marshalling the canonical value must reproduce the fixture
// byte-for-byte, and unmarshalling the fixture must reproduce the
// value (a full round trip, so both directions of the wire format are
// frozen). Regenerate intentionally with: go test ./internal/apiv1
// -run Golden -update
func TestContractGoldenFixtures(t *testing.T) {
	for name, v := range contractCases() {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name+".golden.json")
			got, err := json.MarshalIndent(v, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("wire format drifted from golden fixture %s:\n got: %s\nwant: %s\n"+
					"If this change is intentional, regenerate with -update AND add a version note to docs/api.md.",
					path, got, want)
			}
			// Reverse direction: the fixture must decode back into the
			// canonical value.
			back := reflect.New(reflect.TypeOf(v))
			if err := json.Unmarshal(want, back.Interface()); err != nil {
				t.Fatalf("fixture does not decode: %v", err)
			}
			if !reflect.DeepEqual(back.Elem().Interface(), v) {
				t.Errorf("fixture round trip mismatch:\n got %+v\nwant %+v", back.Elem().Interface(), v)
			}
		})
	}
}
