package schedule

import (
	"fmt"

	"streamsched/internal/partition"
	"streamsched/internal/sdf"
)

// ByName resolves a scheduler name — flat, scaled, demand, kohli or
// partitioned — for g. scale is the scaled baseline's factor; partitioned
// picks the shape-appropriate variant (see Partitioned). The CLI, the
// daemon and the experiments all resolve names here; callers wrap the
// unknown-name error in their own terms (usage, bad_request).
func ByName(name string, g *sdf.Graph, scale int64) (Scheduler, error) {
	switch name {
	case "flat":
		return FlatTopo{}, nil
	case "scaled":
		return Scaled{S: scale}, nil
	case "demand":
		return DemandDriven{}, nil
	case "kohli":
		return KohliGreedy{}, nil
	case "partitioned":
		return Partitioned(g, nil), nil
	default:
		return nil, fmt.Errorf("unknown scheduler %q", name)
	}
}

// Partitioned returns the paper's partitioned scheduler matching g's
// shape: the half-full-rule pipeline scheduler for pipelines, the T=M
// batching scheduler for homogeneous dags, and the general batch scheduler
// otherwise. A nil p means the partition is computed at Prepare time.
func Partitioned(g *sdf.Graph, p *partition.Partition) Scheduler {
	switch {
	case g.IsPipeline():
		return PartitionedPipeline{P: p}
	case g.IsHomogeneous():
		return PartitionedHomogeneous{P: p}
	default:
		return PartitionedBatch{P: p}
	}
}

// Baselines returns the comparison schedulers from the paper's related
// work: the flat single-appearance schedule, Sermulins-style execution
// scaling (s=4), the minimal-buffer demand-driven schedule, and the
// Kohli-style greedy heuristic.
func Baselines() []Scheduler {
	return []Scheduler{FlatTopo{}, Scaled{S: 4}, DemandDriven{}, KohliGreedy{}}
}
