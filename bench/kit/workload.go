package kit

// What the driver and the layer probe must agree on: the engine
// parameters, the generated graph's shape, the CLI workloads' grids and
// windows, and the daemon workloads' requests. Both programs import this
// package, so neither passes them to the other.

// The design cache the schedules are planned for, the block size, and
// the generated graph's shape. Filters hold FilterBlocks blocks of state,
// give or take the one block the seed may move: two filters always fit a
// component of DesignM words and three never do, so the partition has
// the same shape — and an op the same number of block accesses — for
// every seed. (With ten-block filters a third sometimes fitted, and
// seeds differed by 56% in work.)
const (
	DesignM      = 512
	BlockB       = 16
	Branches     = 8
	FilterBlocks = 12
)

// Generate makes graph variant i of a run: variant 0 is the graph the
// CLI ops run on and the first the daemon sees.
func Generate(seed uint64, name string, variant int) Graph {
	return SplitJoin(NewRand(seed+uint64(variant)<<20), name, Branches, FilterBlocks, BlockB)
}

// Grids of the CLI workloads; ways 0 is fully associative.
var (
	OrgCaps = []int64{256, 512, 1024, 2048, 4096}
	OrgWays = []int64{1, 2, 4, 8, 0}

	HierL1Caps = []int64{256, 512, 1024}
	HierL1Ways = []int64{1, 2, 0}
	HierL2Caps = []int64{2048, 4096, 8192, 16384}
	HierL2Ways = []int64{4, 8, 0}

	SharedProcs  = 4
	SharedL1Ways = []int64{2, 0}
	SharedL2Ways = []int64{8, 0}
)

// Windows, in source firings. The partitioned scheduler fires the source
// in batches of DesignM, so windows are whole batches. One batch each
// puts a CLI op at about 0.15 s on the reference box; DaemonMeasure
// sizes one cold profile computation of daemon-cold, WarmMeasure each
// profile key's one computation while daemon-warm sets up.
const (
	GridWarm, GridMeasure = DesignM, DesignM
	DaemonWarm            = DesignM
	DaemonMeasure         = 5 * DesignM
	WarmMeasure           = 2 * DesignM
)

// DaemonCaps are the capacities every profile request asks for.
var DaemonCaps = []int64{256, 512, 1024, 2048, 4096, 8192}

const (
	// WarmBatch is one daemon-warm op: this many sequential keep-alive
	// requests, every WarmFreshEvery-th a never-seen byte string.
	WarmBatch      = 1000
	WarmFreshEvery = 10
	// ProbeReps is how often the layer probe repeats each layer call; it
	// is handed one graph more than that.
	ProbeReps = 15
)
