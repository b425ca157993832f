package kit

// Metric is one reported number.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// ProbeSpec is what the driver hands the layer probe: the workload's own
// inputs. Everything the two programs share by construction is in
// workload.go. The probe is a separate program (bench/layers, built with
// -tags benchlayers) because it alone imports the engine's packages.
type ProbeSpec struct {
	Workload string `json:"workload"`
	// Graphs are generated graph files, ProbeReps+1 of them. The first is
	// the workload's own (first) graph; the rest are equal-work variants,
	// one per cold daemon computation the probe makes.
	Graphs []string `json:"graphs"`
	// Warm and Measure are the window of the workload's own op, which the
	// record, decode and single-curve probes replay. The grid probes use
	// the CLI ops' window on every workload (a daemon op's window is
	// several times longer, and no daemon op profiles a grid).
	Warm    int64 `json:"warm"`
	Measure int64 `json:"measure"`
	// DaemonMeasure is the window of the daemon requests the probe makes.
	DaemonMeasure int64 `json:"daemon_measure"`
	// Exponent is the workload's normalisation exponent (see Normalise):
	// a traced run scales every time it takes the way its ops are scaled.
	Exponent float64 `json:"exponent"`
}

// ProbeResult is what the probe prints: the per-layer metrics, the spans
// around every layer call, the sums the driver needs to find the time no
// layer owns, and the cross-check tallies.
type ProbeResult struct {
	Metrics map[string]Metric `json:"metrics"`
	Spans   []Span            `json:"spans"`
	// OpLayersMS is the normalised in-process time of the layer calls that
	// make up one op of the workload; CLIProbeLayersMS the same for the
	// `misscurve` grid op on the workload's graph.
	OpLayersMS       float64 `json:"op_layers_ms"`
	CLIProbeLayersMS float64 `json:"cli_probe_layers_ms"`
	// NaivePoints and OraclePoints count the grid points checked against
	// the bench's naive simulator and the repo's pointwise oracles.
	NaivePoints  int      `json:"naive_points"`
	OraclePoints int      `json:"oracle_points"`
	Problems     []string `json:"problems"`
}
