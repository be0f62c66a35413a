package jxta

import (
	"reflect"
	"slices"
	"testing"

	"jxta/internal/deploy"
	"jxta/internal/discovery"
	"jxta/internal/experiments"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
)

// settable names what sets one exported field of a configuration struct: an
// experiment (`-exp <name>`), a surface (the facade, a command, an example)
// or a workload of the repository benchmark — or "test only", with the
// reason the field stays.
type settable struct {
	strct, field, setter string
}

// settables is the options audit as a ratchet: one row per exported field of
// the fourteen configuration structs. A value nothing sets is dead code (ROADMAP
// aim 2), so a new field needs a row that names its setter, and a deleted
// field takes its row with it.
var settables = []settable{
	{"jxta.SimOptions", "Seed", "every example (examples/*)"},
	{"jxta.SimOptions", "Rendezvous", "every example (examples/*)"},
	{"jxta.SimOptions", "Topology", "every example (examples/*)"},
	{"jxta.SimOptions", "Edges", "every example (examples/*)"},
	{"jxta.SimOptions", "LeaseDuration", "test only: the facade's one way into the island-merge scenario its acceptance tests pin"},
	{"jxta.SimOptions", "DisableSelfHealing", "test only: the facade's one way into the paper-faithful tier its acceptance tests pin"},
	{"jxta.SimOptions", "DisableIslandMerge", "test only: the facade's one way into the self-heal-only tier its acceptance tests pin"},

	{"deploy.Spec", "Seed", "every experiment; every simulated benchmark workload"},
	{"deploy.Spec", "NumRdv", "every experiment; every simulated benchmark workload"},
	{"deploy.Spec", "Shards", "-exp scale; the benchmark's traced Shards=2 replay"},
	{"deploy.Spec", "Hibernate", "benchmark edges-10k (ignored; goes with ROADMAP 0(a))"},
	{"deploy.Spec", "LeanMetrics", "benchmark only, ignored; goes with ROADMAP 0(a)"},
	{"deploy.Spec", "Topology", "every experiment; every simulated benchmark workload"},
	{"deploy.Spec", "Peerview", "-exp fig4left, ablations, volatility; benchmark discovery-churn"},
	{"deploy.Spec", "Lease", "-exp churn, volatility, scale; benchmark edges-10k, discovery-churn"},
	{"deploy.Spec", "Discovery", "every experiment (DefaultConfig); -exp ablations (no walk)"},
	{"deploy.Spec", "Edges", "every experiment with edges; benchmark edges-10k, discovery-churn"},

	{"node.Config", "Name", "deploy.Build; jxta-node -name; examples/tcpoverlay; benchmark live-tcp"},
	{"node.Config", "Role", "deploy.Build; jxta-node -rdv; examples/tcpoverlay; benchmark live-tcp"},
	{"node.Config", "Seeds", "deploy.Build; examples/tcpoverlay; benchmark live-tcp"},
	{"node.Config", "Peerview", "deploy.Build; jxta-node -selfheal; benchmark live-tcp (250 ms interval)"},
	{"node.Config", "Lease", "deploy.Build; jxta-node -selfheal / -islandmerge"},
	{"node.Config", "Discovery", "deploy.Build; jxta-node; examples/tcpoverlay; benchmark live-tcp (zero ScanCost)"},
	{"node.Config", "AdvStore", "deploy.Build (one store per overlay); benchmark kernels"},
	{"node.Config", "Metrics", "benchmark only, ignored; goes with ROADMAP 0(a)"},

	{"peerview.Config", "Interval", "-exp ablations (PEERVIEW_INTERVAL); benchmark live-tcp"},
	{"peerview.Config", "EntryExpiry", "-exp fig4left (tuned PVE_EXPIRATION), ablations"},
	{"peerview.Config", "HappySize", "test only: TestHibernateKillRestartPromote needs a promoted edge's happy tick"},
	{"peerview.Config", "ReferralsPerProbe", "-exp ablations"},
	{"peerview.Config", "ProbeTimeoutRounds", "the facade (self-healing); jxta-node -selfheal; -exp volatility; benchmark discovery-churn"},

	{"rendezvous.Config", "LeaseDuration", "the facade; -exp churn, volatility, scale; benchmark edges-10k, discovery-churn"},
	{"rendezvous.Config", "ResponseTimeout", "-exp churn, volatility; benchmark discovery-churn"},
	{"rendezvous.Config", "FailoverAttempts", "-exp volatility; benchmark discovery-churn"},
	{"rendezvous.Config", "SelfHeal", "the facade; jxta-node -selfheal; -exp volatility; benchmark discovery-churn"},
	{"rendezvous.Config", "IslandMerge", "the facade; jxta-node -islandmerge; -exp volatility; benchmark discovery-churn"},

	{"discovery.Config", "ScanCost", "every experiment (DefaultConfig); benchmark live-tcp (zero)"},
	{"discovery.Config", "DisableWalk", "-exp ablations (no-walk row)"},

	{"experiments.PeerviewSpec", "R", "-exp fig3left, fig3right, fig4left, scale"},
	{"experiments.PeerviewSpec", "Topology", "-exp fig3left, fig3right, fig4left, scale"},
	{"experiments.PeerviewSpec", "EntryExpiry", "-exp fig4left (tuned)"},
	{"experiments.PeerviewSpec", "Duration", "-exp fig3left, fig3right, fig4left, scale"},
	{"experiments.PeerviewSpec", "Seed", "-exp fig3left, fig3right, fig4left, scale"},
	{"experiments.PeerviewSpec", "Shards", "-exp scale"},

	{"experiments.ScaleSpec", "R", "-exp scale"},
	{"experiments.ScaleSpec", "Edges", "-exp scale"},
	{"experiments.ScaleSpec", "Shards", "-exp scale"},
	{"experiments.ScaleSpec", "Duration", "-exp scale"},
	{"experiments.ScaleSpec", "Lease", "test only: goldenScaleSpec sets 2 min, so removing it would move a golden"},
	{"experiments.ScaleSpec", "Seed", "-exp scale"},

	{"experiments.Options", "Seed", "jxta-bench -seed"},
	{"experiments.Options", "Quick", "jxta-bench -quick"},

	{"experiments.DiscoverySpec", "R", "-exp fig4right, ablations (walk), scale full (axes_r1000)"},
	{"experiments.DiscoverySpec", "Noise", "-exp fig4right (configuration B)"},
	{"experiments.DiscoverySpec", "Queries", "-exp fig4right, ablations (walk), scale full (axes_r1000)"},
	{"experiments.DiscoverySpec", "DisableWalk", "-exp ablations (no-walk row)"},
	{"experiments.DiscoverySpec", "Converge", "test only: goldenDiscovery sets 10 min, so removing it would move a golden"},
	{"experiments.DiscoverySpec", "Shards", "-exp scale full (axes_r1000); TestDiscoveryShardedDeterministic"},
	{"experiments.DiscoverySpec", "Seed", "-exp fig4right, ablations, scale"},
	{"experiments.ChurnSpec", "R", "-exp churn; BenchmarkChurnDiscovery"},
	{"experiments.ChurnSpec", "Kills", "-exp churn; BenchmarkChurnDiscovery"},
	{"experiments.ChurnSpec", "Queries", "-exp churn; BenchmarkChurnDiscovery"},
	{"experiments.ChurnSpec", "Seed", "-exp churn; BenchmarkChurnDiscovery"},
	{"experiments.RecoverySpec", "R", "-exp churn (recovery); goldenRecovery"},
	{"experiments.RecoverySpec", "Kills", "-exp churn (recovery); goldenRecovery"},
	{"experiments.RecoverySpec", "Queries", "-exp churn (recovery); goldenRecovery"},
	{"experiments.RecoverySpec", "Seed", "-exp churn (recovery); goldenRecovery"},
	{"experiments.VolatilitySpec", "R", "-exp volatility, scale full (axes_r1000)"},
	{"experiments.VolatilitySpec", "EdgesPerRdv", "-exp volatility, scale full (axes_r1000)"},
	{"experiments.VolatilitySpec", "KillEvery", "-exp volatility, scale full (axes_r1000)"},
	{"experiments.VolatilitySpec", "Kills", "-exp scale full (axes_r1000); goldens (goldenVolatility, goldenIslandMerge)"},
	{"experiments.VolatilitySpec", "RejoinAfter", "-exp volatility (kill-rejoin)"},
	{"experiments.VolatilitySpec", "Queries", "-exp volatility, scale full (axes_r1000)"},
	{"experiments.VolatilitySpec", "IslandMerge", "-exp volatility (attrition+merge)"},
	{"experiments.VolatilitySpec", "Shards", "-exp scale full (axes_r1000); TestVolatilityShardedDeterministic"},
	{"experiments.VolatilitySpec", "Seed", "-exp volatility, scale"},
	{"experiments.RoutingSpec", "N", "-exp routing"},
	{"experiments.RoutingSpec", "Keys", "-exp routing"},
	{"experiments.RoutingSpec", "Lookups", "-exp routing"},
	{"experiments.RoutingSpec", "Converge", "-exp routing -quick (12 min); goldenRouting"},
	{"experiments.RoutingSpec", "MaintWindow", "-exp routing -quick (5 min); goldenRouting"},
	{"experiments.RoutingSpec", "Seed", "-exp routing"},
}

func TestSettableValues(t *testing.T) {
	structs := []any{
		SimOptions{}, deploy.Spec{}, node.Config{},
		peerview.Config{}, rendezvous.Config{}, discovery.Config{},
		experiments.PeerviewSpec{}, experiments.ScaleSpec{},
		experiments.Options{},
		experiments.DiscoverySpec{}, experiments.ChurnSpec{},
		experiments.RecoverySpec{}, experiments.VolatilitySpec{},
		experiments.RoutingSpec{},
	}
	var fields []settable
	for _, v := range structs {
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				fields = append(fields, settable{strct: typ.String(), field: f.Name})
			}
		}
	}
	key := func(s settable) settable { return settable{strct: s.strct, field: s.field} }
	for _, f := range fields {
		if !slices.ContainsFunc(settables, func(s settable) bool { return key(s) == f }) {
			t.Errorf("%s.%s has no row: name what sets it, or delete it", f.strct, f.field)
		}
	}
	for _, s := range settables {
		if !slices.Contains(fields, key(s)) {
			t.Errorf("row %s.%s names a field that no longer exists", s.strct, s.field)
		}
		if s.setter == "" {
			t.Errorf("row %s.%s names no setter", s.strct, s.field)
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d settable values in %d structs", len(fields), len(structs))
}
