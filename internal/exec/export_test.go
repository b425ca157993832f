package exec

import (
	"streamsched/internal/cachesim"
	"streamsched/internal/sdf"
)

// StateRegion returns the region laid out for v's state, for the cost
// model oracle in costmodel_test.go.
func (m *Machine) StateRegion(v sdf.NodeID) cachesim.Region { return m.state[v] }
