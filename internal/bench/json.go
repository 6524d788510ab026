package bench

import (
	"encoding/json"
	"io"
	"runtime"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// ReportSchemaVersion is bumped whenever the JSON shape below changes
// incompatibly, so downstream diff tooling can refuse mixed comparisons.
const ReportSchemaVersion = 1

// Report is the machine-readable result set volcano-bench emits with
// -json: every experiment's numbers under a stable schema (durations in
// integer nanoseconds, fixed field names) so the performance trajectory
// of the tree is diffable across PRs.
type Report struct {
	SchemaVersion int    `json:"schema_version"`
	Tool          string `json:"tool"`
	GoVersion     string `json:"go_version"`
	GOMAXPROCS    int    `json:"gomaxprocs"`
	Records       int    `json:"records"`

	T1          *T1JSON          `json:"t1,omitempty"`
	Fig2a       []Fig2aPointJSON `json:"fig2a,omitempty"`
	Fig2bSlopes *Fig2bJSON       `json:"fig2b_slopes,omitempty"`
	Ablations   []AblationJSON   `json:"ablations,omitempty"`
	// AnalyzedPass is the instrumented pipeline pass (-analyze): elapsed
	// time, the sink's exact Next call count, and its Next-latency
	// distribution over the timed calls summarised as mean/quantiles.
	// Additive and omitempty, so the schema version holds.
	AnalyzedPass *AnalyzedPassJSON `json:"analyzed_pass,omitempty"`
}

// AnalyzedPassJSON summarises the instrumented pass for the report.
type AnalyzedPassJSON struct {
	Records   int   `json:"records"`
	ElapsedNs int64 `json:"elapsed_ns"`
	NextCalls int64 `json:"next_calls"`
	MeanNs    int64 `json:"mean_ns"`
	P50Ns     int64 `json:"p50_ns"`
	P95Ns     int64 `json:"p95_ns"`
	P99Ns     int64 `json:"p99_ns"`
}

// T1JSON is the §5 overhead table.
type T1JSON struct {
	NoExchangeNs           int64 `json:"no_exchange_ns"`
	InlineNs               int64 `json:"inline_ns"`
	PipelineFlowNs         int64 `json:"pipeline_flow_ns"`
	PipelineNoFlowNs       int64 `json:"pipeline_noflow_ns"`
	PerRecordPerExchangeNs int64 `json:"per_record_per_exchange_ns"`
}

// Fig2aPointJSON is one packet-size sweep point.
type Fig2aPointJSON struct {
	PacketSize int     `json:"packet_size"`
	ElapsedNs  int64   `json:"elapsed_ns"`
	PaperSec   float64 `json:"paper_sec,omitempty"`
}

// Fig2bJSON is the log-log slope analysis of Figure 2b.
type Fig2bJSON struct {
	SlopeSmallPackets float64 `json:"slope_packets_1_10"`
	SlopeLargePackets float64 `json:"slope_packets_10_83"`
}

// AblationJSON is one ablation study.
type AblationJSON struct {
	Name  string             `json:"name"`
	Title string             `json:"title"`
	Lines []AblationLineJSON `json:"lines"`
}

// AblationLineJSON is one measured configuration of an ablation.
type AblationLineJSON struct {
	Name      string `json:"name"`
	ElapsedNs int64  `json:"elapsed_ns"`
	Extra     string `json:"extra,omitempty"`
}

// NewReport starts a report for a run over the given record count.
func NewReport(records int) *Report {
	return &Report{
		SchemaVersion: ReportSchemaVersion,
		Tool:          "volcano-bench",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Records:       records,
	}
}

// JSON converts the T1 result.
func (r *T1Result) JSON() *T1JSON {
	return &T1JSON{
		NoExchangeNs:           int64(r.NoExchange.Elapsed),
		InlineNs:               int64(r.Inline.Elapsed),
		PipelineFlowNs:         int64(r.PipeFlow.Elapsed),
		PipelineNoFlowNs:       int64(r.PipeNoFlow.Elapsed),
		PerRecordPerExchangeNs: int64(r.PerRecordPerExchange),
	}
}

// JSONPoints converts the Figure-2a sweep.
func (r *Fig2Result) JSONPoints() []Fig2aPointJSON {
	out := make([]Fig2aPointJSON, 0, len(r.Points))
	for _, p := range r.Points {
		out = append(out, Fig2aPointJSON{
			PacketSize: p.PacketSize,
			ElapsedNs:  int64(p.Elapsed),
			PaperSec:   p.PaperSec,
		})
	}
	return out
}

// JSONSlopes converts the Figure-2b slope analysis.
func (r *Fig2Result) JSONSlopes() *Fig2bJSON {
	return &Fig2bJSON{
		SlopeSmallPackets: r.Slope(1, 10),
		SlopeLargePackets: r.Slope(10, 83),
	}
}

// JSON converts an ablation, keyed by its short name (A1, A2, ...). The
// multi-line per-operator breakdowns stay out of the report: they are
// human diagnostics, not comparable numbers.
func (a *Ablation) JSON(name string) AblationJSON {
	out := AblationJSON{Name: name, Title: a.Title}
	for _, l := range a.Lines {
		out.Lines = append(out.Lines, AblationLineJSON{
			Name:      l.Name,
			ElapsedNs: int64(l.Elapsed),
			Extra:     l.Extra,
		})
	}
	return out
}

// WriteJSON renders the report with a stable field order (struct order)
// and trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// RunTracedPass runs one pipeline pass on the Figure-2a topology (a
// producer group of three through two intermediate groups of three to a
// single consumer, flow control with three slack packets) with the
// tracer attached — the canonical "what does the exchange protocol look
// like in time" recording.
func RunTracedPass(records int, tr *trace.Tracer) (PassResult, error) {
	return RunPass(PassConfig{
		Records:     records,
		Stages:      3,
		Groups:      []int{3, 3, 3},
		FlowControl: true,
		Slack:       3,
		PacketSize:  83,
		Tracer:      tr,
	})
}

// RunAnalyzedPass runs one instrumented pipeline pass on the same
// Figure-2a topology: the sink is wrapped, its latency recorded (into
// mr's volcano_op_next_seconds child when mr is non-nil, so a live
// scraper sees it), and the per-stage breakdown rendered.
func RunAnalyzedPass(records int, mr *metrics.Registry) (PassResult, error) {
	return RunPass(PassConfig{
		Records:     records,
		Stages:      3,
		Groups:      []int{3, 3, 3},
		FlowControl: true,
		Slack:       3,
		PacketSize:  83,
		Analyze:     true,
		Metrics:     mr,
	})
}

// JSON summarises an analyzed pass for the report.
func (r *PassResult) JSON() *AnalyzedPassJSON {
	s := r.SinkLatency
	return &AnalyzedPassJSON{
		Records:   r.Records,
		ElapsedNs: int64(r.Elapsed),
		NextCalls: r.SinkCalls,
		MeanNs:    int64(s.Mean()),
		P50Ns:     int64(s.Quantile(0.50)),
		P95Ns:     int64(s.Quantile(0.95)),
		P99Ns:     int64(s.Quantile(0.99)),
	}
}
