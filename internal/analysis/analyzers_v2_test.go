package analysis_test

import (
	"testing"

	"supersim/internal/analysis"
	"supersim/internal/analysis/analysistest"
)

func TestChanProtoBadFixture(t *testing.T) {
	a := analysis.NewChanProto(analysis.DefaultChanProtoRoots)
	analysistest.Run(t, a, "testdata/src/chanproto/bad", "supersim/internal/replay/chanfix")
}

func TestChanProtoGoodFixture(t *testing.T) {
	a := analysis.NewChanProto(analysis.DefaultChanProtoRoots)
	analysistest.Run(t, a, "testdata/src/chanproto/good", "supersim/internal/replay/chanfix")
}

// TestChanProtoUnreachablePackage checks the audit is scoped: the same
// protocol violations are legal outside the PDES-reachable region.
func TestChanProtoUnreachablePackage(t *testing.T) {
	a := analysis.NewChanProto(analysis.DefaultChanProtoRoots)
	diags := analysistest.Diagnostics(t, a, "testdata/src/chanproto/bad", "example.com/elsewhere")
	if len(diags) != 0 {
		t.Fatalf("chanproto fired outside the PDES region: %v", diags)
	}
}

func TestDurableBadFixture(t *testing.T) {
	a := analysis.NewDurable(analysis.DefaultDurableScope)
	analysistest.Run(t, a, "testdata/src/durable/bad", "supersim/internal/server/durafix")
}

func TestDurableGoodFixture(t *testing.T) {
	a := analysis.NewDurable(analysis.DefaultDurableScope)
	analysistest.Run(t, a, "testdata/src/durable/good", "supersim/internal/server/durafix")
}

// TestDurableSharedStoreFixture loads a two-package program shaped like
// simd's store and simcoord on top of it: the coordinator's 202 is backed
// by an AppendSync it reaches only through the store, across the package
// boundary, and an async accept from internal/cluster scope is flagged.
func TestDurableSharedStoreFixture(t *testing.T) {
	a := analysis.NewDurable(analysis.DefaultDurableScope)
	analysistest.RunProgram(t, a, []analysistest.Fixture{
		{Dir: "testdata/src/durable/shared/store", Path: "supersim/internal/server/storefix"},
		{Dir: "testdata/src/durable/shared/coord", Path: "supersim/internal/cluster/coordfix"},
	})
}

// TestDurableUnscopedPackage checks the contract is scoped to the
// service layer.
func TestDurableUnscopedPackage(t *testing.T) {
	a := analysis.NewDurable(analysis.DefaultDurableScope)
	diags := analysistest.Diagnostics(t, a, "testdata/src/durable/bad", "example.com/elsewhere")
	if len(diags) != 0 {
		t.Fatalf("durable fired outside its scope: %v", diags)
	}
}

func TestHotAllocBadFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewHotAlloc(), "testdata/src/hotalloc/bad", "hotfix")
}

func TestHotAllocGoodFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewHotAlloc(), "testdata/src/hotalloc/good", "hotfix")
}

func TestDetMapBadFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewDetMap(analysis.DefaultDetMapSinks), "testdata/src/detmap/bad", "detfix")
}

func TestDetMapGoodFixture(t *testing.T) {
	analysistest.Run(t, analysis.NewDetMap(analysis.DefaultDetMapSinks), "testdata/src/detmap/good", "detfix")
}

// TestVClockTransitiveFixture loads a two-package program: a helper
// outside the virtual-time set wrapping time.Now, and a virtual-time
// package calling it. Only the call-graph fact can see the violation.
func TestVClockTransitiveFixture(t *testing.T) {
	a := analysis.NewVClock(analysis.DefaultVirtualTimePackages)
	analysistest.RunProgram(t, a, []analysistest.Fixture{
		{Dir: "testdata/src/vclock/transitive/helper", Path: "example.com/vhelper"},
		{Dir: "testdata/src/vclock/transitive/core", Path: "supersim/internal/core/fixture"},
	})
}

// TestLockOrderTransitiveFixture checks the inversion buried one call
// deep is reported at the call site via the acquire summary.
func TestLockOrderTransitiveFixture(t *testing.T) {
	a := analysis.NewLockOrder(fixtureLockConfig(t, lockfixConf))
	analysistest.Run(t, a, "testdata/src/lockorder/transitive", "lockfix")
}

// TestDefaultLockConfigServerLocks pins the service-era extension of the
// hierarchy: the server-side locks rank outermost (the server calls into
// the simulation core, never the reverse).
func TestDefaultLockConfigServerLocks(t *testing.T) {
	cfg := analysis.DefaultLockConfig()
	simRank, ok := cfg.Rank("supersim/internal/core.Simulator.mu")
	if !ok {
		t.Fatalf("Simulator.mu missing from lockorder.conf")
	}
	for _, outer := range []analysis.LockKey{
		"supersim/internal/server.Server.mu",
		"supersim/internal/server.Job.mu",
		"supersim/internal/server.Store.mu",
		"supersim/internal/journal.Journal.mu",
	} {
		r, ok := cfg.Rank(outer)
		if !ok {
			t.Fatalf("%s missing from lockorder.conf", outer)
		}
		if r >= simRank {
			t.Fatalf("lockorder.conf must order %s (rank %d) before Simulator.mu (rank %d)", outer, r, simRank)
		}
	}
}
