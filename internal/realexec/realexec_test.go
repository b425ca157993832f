package realexec

import (
	"testing"

	"streamsched/internal/partition"
	"streamsched/internal/sdf"
)

func pipeline(t *testing.T, n int, state int64) *sdf.Graph {
	t.Helper()
	b := sdf.NewBuilder("pipe")
	ids := make([]sdf.NodeID, n)
	for i := range ids {
		s := state
		if i == 0 || i == n-1 {
			s = 0
		}
		ids[i] = b.AddNode("m", s)
	}
	b.Chain(ids...)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestNewValidation(t *testing.T) {
	g := pipeline(t, 4, 8)
	if _, err := New(g, []int64{2}); err == nil {
		t.Error("short caps accepted")
	}
	if _, err := New(g, []int64{1, 1, 1}); err == nil {
		t.Error("caps below minBuf accepted")
	}
}

func TestRunFlatFiresEveryone(t *testing.T) {
	g := pipeline(t, 6, 16)
	m, err := New(g, FlatCaps(g))
	if err != nil {
		t.Fatal(err)
	}
	m.RunFlat(100)
	if m.SourceFirings() < 100 {
		t.Errorf("source fired %d", m.SourceFirings())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if m.fired[sdf.NodeID(v)] != m.SourceFirings() {
			t.Errorf("node %d fired %d of %d", v, m.fired[sdf.NodeID(v)], m.SourceFirings())
		}
	}
	if m.Checksum() == 0 {
		t.Error("checksum did not accumulate")
	}
}

func TestRunSegments(t *testing.T) {
	g := pipeline(t, 10, 64)
	p, err := partition.PipelineOptimalDP(g, 128)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(g, SegmentCaps(g, p, 128))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunSegments(p, 500); err != nil {
		t.Fatal(err)
	}
	if m.SourceFirings() < 500 {
		t.Errorf("source fired %d", m.SourceFirings())
	}
	// Token conservation: in-flight items = fired(from) - fired(to) on each
	// unit-rate edge.
	for e := 0; e < g.NumEdges(); e++ {
		ed := g.Edge(sdf.EdgeID(e))
		want := m.fired[ed.From] - m.fired[ed.To]
		if got := int64(m.bufs[e].count); got != want {
			t.Errorf("edge %d holds %d, want %d", e, got, want)
		}
	}
}

func TestRunSegmentsRejectsNonSegmentation(t *testing.T) {
	g := pipeline(t, 4, 8)
	// A partition whose cross edge skips a component cannot arise from
	// canonical pipeline partitions, so fabricate a two-cut partition and
	// break it by lying about K.
	p := &partition.Partition{Assign: []int{0, 0, 1, 1}, K: 2}
	m, err := New(g, SegmentCaps(g, p, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunSegments(p, 50); err != nil {
		t.Fatal(err)
	}
	bad := &partition.Partition{Assign: []int{0, 1, 0, 1}, K: 2}
	m2, err := New(g, SegmentCaps(g, bad, 16))
	if err != nil {
		t.Fatal(err)
	}
	if err := m2.RunSegments(bad, 50); err == nil {
		t.Error("non-segmentation accepted")
	}
}

func TestCanFireGates(t *testing.T) {
	g := pipeline(t, 3, 4)
	m, err := New(g, []int64{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	mid := sdf.NodeID(1)
	if m.CanFire(mid) {
		t.Error("mid fireable with empty input")
	}
	src := sdf.NodeID(0)
	m.Fire(src)
	m.Fire(src)
	if m.CanFire(src) {
		t.Error("src fireable with full output")
	}
	if !m.CanFire(mid) {
		t.Error("mid not fireable with input available")
	}
}
