package main

// watch.go implements `diggstats -watch URL`: a live terminal view of
// a running diggd's metrics timeline (GET /debug/timeline). Each
// refresh renders the SLO burn-rate statuses, the freshness families
// with their latest quantiles, and the busiest series as sparklines
// of per-step rates — the operator's glanceable answer to "is the
// site fresh right now, and is it getting worse?". The sparkline
// window is short (two minutes at five-second buckets) because this
// view is for watching a deploy or an incident, not for history; the
// server retains ~15 minutes for ad-hoc queries.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"diggsim/internal/apiv1"
	"diggsim/internal/httpapi"
)

const (
	watchWindow = 120 // seconds of sparkline history
	watchStep   = 5   // seconds per sparkline bucket
	watchRows   = 14  // cap on non-freshness series rows per frame
)

// watchTimeline polls /debug/timeline every interval and repaints the
// terminal. With once it renders a single frame without touching the
// screen, for piping into files or CI logs.
func watchTimeline(base string, interval time.Duration, once bool) {
	client := httpapi.NewClient(base)
	for {
		var frame string
		dump, err := client.Timeline(context.Background(), watchWindow*time.Second, watchStep*time.Second)
		switch {
		case err == nil:
			frame = renderFrame(&dump)
		case once:
			fatal(err)
		default:
			// A watch session rides out server restarts: report and retry.
			frame = fmt.Sprintf("diggstats -watch: %v (retrying every %s)\n", err, interval)
		}
		if once {
			fmt.Print(frame)
			return
		}
		// Home the cursor and clear to end of screen — full clears flicker.
		fmt.Print("\x1b[H\x1b[J" + frame)
		time.Sleep(interval)
	}
}

func renderFrame(dump *apiv1.TimelineDump) string {
	var b strings.Builder
	fmt.Fprintf(&b, "metrics timeline — %.0fs window, %.0fs steps — %s\n",
		dump.WindowSeconds, dump.StepSeconds, time.Now().Format("15:04:05"))

	// Burn status first: it is the line an operator is here for.
	if len(dump.Burn) > 0 {
		b.WriteString("\nslo burn (error-budget consumption, 1.0x = exactly on objective):\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  SLO\tOBJECTIVE\tSHORT\tLONG\tSTATUS")
		for _, bs := range dump.Burn {
			status := "ok"
			if bs.Degraded {
				status = "DEGRADED"
			}
			fmt.Fprintf(tw, "  %s\t%.2f%% < %s\t%s\t%s\t%s\n",
				bs.Name, bs.Objective*100,
				fmtMillis(bs.ThresholdMillis), fmtBurn(bs.Short), fmtBurn(bs.Long), status)
		}
		tw.Flush()
	}

	fresh, active := splitSeries(dump.Series)

	if len(fresh) > 0 {
		b.WriteString("\nfreshness (write → visible):\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  SPAN\tRATE\tP50\tP99\t"+sparkHeader())
		for _, s := range fresh {
			last := lastPoint(s)
			fmt.Fprintf(tw, "  %s\t%s/s\t%s\t%s\t%s\n",
				freshLabel(s), fmtRate(last.Rate),
				fmtMillis(last.P50Millis), fmtMillis(last.P99Millis),
				sparkline(rates(s)))
		}
		tw.Flush()
	}

	if len(active) > 0 {
		b.WriteString("\nbusiest series (per-step rate):\n")
		tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  SERIES\tNOW\t"+sparkHeader())
		for _, s := range active {
			last := lastPoint(s)
			now := fmtRate(last.Rate) + "/s"
			if s.Kind == "gauge" {
				now = fmtRate(float64(last.Value))
			}
			extra := ""
			if s.Kind == "histogram" && last.P99Millis > 0 {
				extra = "  p99=" + fmtMillis(last.P99Millis)
			}
			fmt.Fprintf(tw, "  %s\t%s\t%s%s\n", seriesLabel(s), now, sparkline(rates(s)), extra)
		}
		tw.Flush()
	}
	return b.String()
}

// splitSeries separates the freshness families (always shown, in
// pipeline order) from everything else (shown busiest-first, capped).
func splitSeries(series []apiv1.TimelineSeries) (fresh, active []apiv1.TimelineSeries) {
	for _, s := range series {
		if strings.HasPrefix(s.Name, "diggsim_freshness_") {
			fresh = append(fresh, s)
			continue
		}
		if maxRate(s) > 0 || (s.Kind == "gauge" && lastPoint(s).Value != 0) {
			active = append(active, s)
		}
	}
	sort.SliceStable(fresh, func(i, j int) bool {
		return freshOrder(fresh[i].Name) < freshOrder(fresh[j].Name)
	})
	sort.SliceStable(active, func(i, j int) bool {
		// Gauges last — they are context, not traffic.
		gi, gj := active[i].Kind == "gauge", active[j].Kind == "gauge"
		if gi != gj {
			return gj
		}
		return maxRate(active[i]) > maxRate(active[j])
	})
	if len(active) > watchRows {
		active = active[:watchRows]
	}
	return fresh, active
}

// freshOrder ranks the freshness families in pipeline order: accept →
// front page, publish → SSE client, commit → follower.
func freshOrder(name string) int {
	switch {
	case strings.Contains(name, "frontpage"):
		return 0
	case strings.Contains(name, "sse"):
		return 1
	case strings.Contains(name, "follower"):
		return 2
	}
	return 3
}

// freshLabel shortens a freshness family to its span name, keeping
// the source label that distinguishes HTTP writes from live-sim steps.
func freshLabel(s apiv1.TimelineSeries) string {
	name := strings.TrimSuffix(strings.TrimPrefix(s.Name, "diggsim_freshness_"), "_seconds")
	if s.Labels != "" {
		name += "{" + s.Labels + "}"
	}
	return name
}

func seriesLabel(s apiv1.TimelineSeries) string {
	name := s.Name
	if s.Labels != "" {
		name += "{" + s.Labels + "}"
	}
	return name
}

func lastPoint(s apiv1.TimelineSeries) apiv1.TimelinePoint {
	if len(s.Points) == 0 {
		return apiv1.TimelinePoint{}
	}
	return s.Points[len(s.Points)-1]
}

// rates extracts the sparkline values: per-step rate for counters and
// histograms, the sampled value for gauges.
func rates(s apiv1.TimelineSeries) []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		if s.Kind == "gauge" {
			out[i] = float64(p.Value)
		} else {
			out[i] = p.Rate
		}
	}
	return out
}

func maxRate(s apiv1.TimelineSeries) float64 {
	m := 0.0
	for _, p := range s.Points {
		if p.Rate > m {
			m = p.Rate
		}
	}
	return m
}

// sparkRunes is the 8-level block ramp sparklines are drawn with.
var sparkRunes = []rune("▁▂▃▄▅▆▇█")

// sparkline renders vals scaled against their own maximum — each row
// shows its shape over time, not cross-row magnitude (the NOW column
// carries that).
func sparkline(vals []float64) string {
	max := 0.0
	for _, v := range vals {
		if v > max {
			max = v
		}
	}
	var b strings.Builder
	for _, v := range vals {
		idx := 0
		if max > 0 && v > 0 {
			idx = int(math.Round(v / max * float64(len(sparkRunes)-1)))
			if idx >= len(sparkRunes) {
				idx = len(sparkRunes) - 1
			}
		}
		b.WriteRune(sparkRunes[idx])
	}
	return b.String()
}

func sparkHeader() string {
	return fmt.Sprintf("LAST %dS", watchWindow)
}

// fmtBurn renders one burn window: the multiplier, or how much of the
// window has data yet.
func fmtBurn(w apiv1.BurnWindow) string {
	if w.Total == 0 {
		if w.CoveredSeconds < w.WindowSeconds {
			return fmt.Sprintf("(%.0fs/%.0fs)", w.CoveredSeconds, w.WindowSeconds)
		}
		return "idle"
	}
	return fmt.Sprintf("%.2fx", w.Burn)
}

// fmtRate renders an events-per-second (or gauge) value compactly.
func fmtRate(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.1fk", v/1000)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.2f", v)
	}
}
