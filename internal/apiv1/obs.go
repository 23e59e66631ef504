package apiv1

// obs.go defines the wire shapes of GET /debug/obs: a JSON dump of the
// ring of recent slow traces. The dump is a debugging surface, so
// durations are rendered in milliseconds (the natural unit of request
// latency) rather than the exposition format's seconds.

// ObsDump is the GET /debug/obs response.
type ObsDump struct {
	// SlowTotal counts slow requests ever recorded (the ring retains
	// only the most recent).
	SlowTotal uint64 `json:"slow_traces_total"`
	// SlowTraces are the retained slow requests, newest first.
	SlowTraces []ObsTrace `json:"slow_traces"`
}

// ObsTrace is one retained slow request with its recorded spans.
type ObsTrace struct {
	// ID is the request's trace ID (16 hex digits), matching the
	// X-Trace-Id response header and slow-request log lines.
	ID     string `json:"id"`
	Method string `json:"method"`
	Path   string `json:"path"`
	Status int    `json:"status"`
	// StartUnixMillis is the request's arrival time.
	StartUnixMillis int64     `json:"start_unix_ms"`
	DurationMillis  float64   `json:"duration_ms"`
	Spans           []ObsSpan `json:"spans,omitempty"`
}

// ObsSpan is one named stage within a slow trace.
type ObsSpan struct {
	Name string `json:"name"`
	// OffsetMillis is the stage's start relative to the request start.
	OffsetMillis   float64 `json:"offset_ms"`
	DurationMillis float64 `json:"duration_ms"`
}
