package experiments

import (
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"testing"
	"time"

	"jxta/internal/topology"
)

// The golden determinism tests pin the engine's bit-for-bit replay contract
// across refactors of the scheduler, transport and message hot paths: a
// fixed-seed experiment must produce byte-identical metrics — every float
// down to the last mantissa bit, every simulator step, every network
// counter — on any implementation of the engine. The golden strings below
// were captured from the original container/heap + per-send-closure engine;
// any scheduler or transport change that reorders events, consumes RNG
// draws differently, or perturbs a latency sample will break them.
//
// Every overlay these tests deploy runs with its edges' RNG registers
// released (deploy.Overlay.AddEdge), including the edges the volatility and
// island-merge goldens promote, which rebuild their stream at the position
// their peer ID left it. The strings predate that, so the goldens are the
// end-to-end half of the proof that a released stream changes no trajectory;
// simnet.TestReleasedStreamContinues is the property half.
//
// If a change is *supposed* to alter simulation results (a model change,
// not an engine change), re-capture by setting the golden constants to
// "UNSET", running `go test ./internal/experiments -run TestGolden`, and
// pasting the printed fingerprints back in — and say so in the commit
// message.

// hexFloat renders a float64 exactly (hex mantissa), so golden comparisons
// are bit-for-bit rather than rounded.
func hexFloat(f float64) string { return strconv.FormatFloat(f, 'x', -1, 64) }

func peerviewFingerprint(res PeerviewResult) string {
	h := fnv.New64a()
	io.WriteString(h, res.Size.CSV())
	io.WriteString(h, res.MeanSize.CSV())
	for _, e := range res.Events.Events {
		fmt.Fprintf(h, "%d|%d|%d|%s;", e.At, e.Kind, e.PeerNum, e.Peer)
	}
	return fmt.Sprintf("max=%d final=%d plateau=%s reached=%v@%d consistent=%v steps=%d msgs=%d bytes=%d dropped=%d series=%016x",
		res.MaxSize, res.FinalSize, hexFloat(res.PlateauMean),
		res.ReachedMax, res.ReachedMaxAt, res.ConsistentAtEnd,
		res.Steps, res.NetStats.Messages, res.NetStats.Bytes,
		res.NetStats.Dropped, h.Sum64())
}

func discoveryFingerprint(res DiscoveryResult) string {
	return fmt.Sprintf("mean=%s n=%d min=%s p50=%s p95=%s max=%s timeouts=%d walk=%s steps=%d msgs=%d bytes=%d dropped=%d",
		hexFloat(res.MeanMs), res.Latency.N(),
		hexFloat(res.Latency.Quantile(0)), hexFloat(res.Latency.Quantile(0.5)),
		hexFloat(res.Latency.Quantile(0.95)), hexFloat(res.Latency.Quantile(1)),
		res.Timeouts, hexFloat(res.WalkFraction),
		res.Steps, res.NetStats.Messages, res.NetStats.Bytes,
		res.NetStats.Dropped)
}

func phaseFingerprint(ps PhaseStats) string {
	return fmt.Sprintf("ok=%d to=%d mean=%s", ps.Succeeded, ps.Timeouts,
		hexFloat(ps.Latency.Mean()))
}

func recoveryFingerprint(res RecoveryResult) string {
	return fmt.Sprintf("base[%s] outage[%s] rec[%s] views=%s/%s/%s reconv=%v steps=%d msgs=%d bytes=%d dropped=%d",
		phaseFingerprint(res.Baseline), phaseFingerprint(res.Outage),
		phaseFingerprint(res.Recovered),
		hexFloat(res.ViewBeforeKill), hexFloat(res.ViewAfterKill),
		hexFloat(res.ViewAfterRejoin), res.Reconverged,
		res.Steps, res.NetStats.Messages, res.NetStats.Bytes,
		res.NetStats.Dropped)
}

func islandMergeFingerprint(res VolatilityResult) string {
	s := ""
	for _, pt := range res.Points {
		s += fmt.Sprintf("kill=%v %s promos=%d live=%d view=%s reconv=%v merges=%d ttst=%v conv=%v post[%s];",
			pt.KillEvery, phaseFingerprint(pt.Phase), pt.Promotions,
			pt.LiveTier, hexFloat(pt.MeanView), pt.Reconverged,
			pt.Merge.Merges, pt.Merge.TimeToSingleTier, pt.Merge.Converged,
			phaseFingerprint(pt.Merge.Phase))
	}
	return fmt.Sprintf("%s steps=%d msgs=%d bytes=%d dropped=%d",
		s, res.Steps, res.NetStats.Messages, res.NetStats.Bytes, res.NetStats.Dropped)
}

func routingFingerprint(res RoutingResult) string {
	s := ""
	for _, pt := range res.Points {
		s += fmt.Sprintf("%s[n=%d pub=%s ok=%d/%d hops=%s lat=%s msgs=%s maint=%s];",
			pt.Backend, pt.N, hexFloat(pt.PublishMsgsPerOp),
			pt.Success, pt.Lookups, hexFloat(pt.MeanHops),
			hexFloat(pt.Latency.Mean()), hexFloat(pt.LookupMsgsPerOp),
			hexFloat(pt.MaintMsgsPerMin))
	}
	return s
}

func volatilityFingerprint(res VolatilityResult) string {
	s := ""
	for _, pt := range res.Points {
		s += fmt.Sprintf("kill=%v %s promos=%d live=%d view=%s reconv=%v;",
			pt.KillEvery, phaseFingerprint(pt.Phase), pt.Promotions,
			pt.LiveTier, hexFloat(pt.MeanView), pt.Reconverged)
	}
	return fmt.Sprintf("%s steps=%d msgs=%d bytes=%d dropped=%d",
		s, res.Steps, res.NetStats.Messages, res.NetStats.Bytes, res.NetStats.Dropped)
}

// Recapture note (PR 10): every simulation golden below was recaptured
// after three intentional protocol changes moved all fixed-seed
// trajectories at once. (1) The peerview referral batch rewrite — the
// r=1,000 plateau fix — replaced per-probe i.i.d. random referral draws
// with a rotating no-replacement cursor (removing RNG consumption from
// every probe) and ships one referral message with batched advertisement
// elements instead of several single-adv messages, so message counts,
// bytes and every downstream RNG draw shift. (2) Resolver responses now
// echo the query's hop count (one extra wire element: byte counts move).
// (3) rumor aging came on (today the dead-sweep count of each record in the
// rendezvous service's rumor store, evicted at rumorDeadSweeps), so
// island-merge scenarios retire dead tier-probe targets they previously
// probed forever (volatility/island-merge traffic shrinks). The peerview
// golden's plateau/consistency claims still hold (reached=true,
// consistent=true — convergence is now slightly later at this small r
// because referrals arrive batched per probe rather than scattered); the
// island-merge golden still asserts single-tier convergence and 100%
// post-merge discovery.
const (
	goldenPeerview  = "max=23 final=23 plateau=0x1.7p+04 reached=true@270000000000 consistent=true steps=12048 msgs=5050 bytes=3014127 dropped=0 series=2d647532512cdb66"
	goldenDiscovery = "mean=0x1.a8ed6e47dc37bp+03 n=12 min=0x1.4f56238da3c21p+03 p50=0x1.99961f5be5d9ep+03 p95=0x1.036f18bc8f67ep+04 max=0x1.08dccb7d41744p+04 timeouts=0 walk=0x0p+00 steps=2418 msgs=967 bytes=561367 dropped=0"
	goldenRecovery  = "base[ok=8 to=0 mean=0x1.a0d91e215336fp+03] outage[ok=6 to=2 mean=0x1.a51d57a620d84p+03] rec[ok=8 to=0 mean=0x1.ddadc054ef459p+03] views=0x1.5d55555555555p+03/0x1.6p+03/0x1.6p+03 reconv=true steps=12840 msgs=5008 bytes=2944545 dropped=70"

	// goldenVolatility pins the whole self-healing machinery — lease-grant
	// state snapshots, missed-renewal detection, deterministic successor
	// election, in-place edge→rendezvous promotion, roster adoption and
	// re-leasing — to the bit-for-bit replay contract: a fixed-seed full
	// attrition (kills with no rejoin) plus a kill/rejoin churn point must
	// reproduce every query outcome, promotion and counter exactly.
	goldenVolatility = "kill=1m30s ok=23 to=17 mean=0x1.09e38203a037cp+03 promos=3 live=3 view=0x1.5555555555555p-01 reconv=false; steps=7602 msgs=3169 bytes=1761359 dropped=609 || kill=1m30s ok=32 to=8 mean=0x1.0333fc9795b36p+03 promos=0 live=4 view=0x1.8p+01 reconv=true; steps=9040 msgs=3540 bytes=2096868 dropped=67"

	// goldenIslandMerge pins the island-merge subsystem end to end — rumor
	// piggyback on lease traffic, tier probes and their anchor redirects,
	// the peerview merge handshake, SRDI re-replication over the merged
	// view and duplicate-lease reconciliation — on the same full-attrition
	// scenario goldenVolatility leaves fragmented (live=3, reconv=false):
	// with IslandMerge on, the three promoted islands must gossip each
	// other into a single tier and post-merge discovery success must return
	// to 100%, bit for bit on every replay.
	goldenIslandMerge = "kill=1m30s ok=28 to=12 mean=0x1.0fba5046e4278p+03 promos=3 live=3 view=0x1p+01 reconv=true merges=8 ttst=0s conv=true post[ok=40 to=0 mean=0x1.0a479fdf2df86p+03]; steps=6959 msgs=2864 bytes=1724115 dropped=224"

	// goldenRouting pins the four-backend bake-off (flood, SRDI walk,
	// Chord, Kademlia over one steady-state publish/lookup/maintenance
	// scenario) to the bit-for-bit replay contract: per-backend message
	// costs, hop counts and latencies must reproduce exactly. Recaptured
	// when the post-churn wave left the bake-off: only its kill=, churn=
	// and chops= fields went. That wave ran after everything still pinned
	// here, so every surviving value is byte-identical to the capture
	// before it. Recaptured again when Chord and flooding moved onto the
	// endpoint and resolver: only their lat= fields moved (flood 10.30885
	// → 10.31491 ms, chord 13.15773 → 13.16515 ms), because a message now
	// carries the resolver and endpoint envelope, whose bytes take
	// transmission time at the model's 1 Gbit/s. The same messages travel
	// in the same order, so pub=, ok=, hops=, msgs= and maint= and the
	// srdi and kademlia segments are byte-identical.
	goldenRouting = "flood[n=16 pub=0x0p+00 ok=12/12 hops=0x1.0aaaaaaaaaaabp+01 lat=0x1.4a13c0c1fc8f2p+03 msgs=0x1.12aaaaaaaaaabp+06 maint=0x0p+00];srdi[n=16 pub=0x1.7d55555555555p+05 ok=12/12 hops=0x1.d555555555555p+00 lat=0x1.3cee831ad2136p+03 msgs=0x1.c555555555555p+04 maint=0x1.0d9999999999ap+07];chord[n=16 pub=0x1.1555555555555p+02 ok=12/12 hops=0x1.3555555555555p+01 lat=0x1.a548e820e6299p+03 msgs=0x1.b555555555555p+01 maint=0x0p+00];kademlia[n=16 pub=0x1.2aaaaaaaaaaabp+06 ok=12/12 hops=0x1p+00 lat=0x1.26a65811c837dp+02 msgs=0x1.6555555555555p+05 maint=0x1.3333333333333p+07];"
)

func TestGoldenPeerviewReplay(t *testing.T) {
	res, err := RunPeerview(PeerviewSpec{
		R: 24, Topology: topology.Chain,
		Duration: 20 * time.Minute, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := peerviewFingerprint(res)
	if goldenPeerview == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenPeerview {
		t.Errorf("peerview replay diverged from golden engine behavior\n got:  %s\n want: %s", got, goldenPeerview)
	}
}

func TestGoldenDiscoveryReplay(t *testing.T) {
	res, err := RunDiscovery(DiscoverySpec{
		R: 8, Queries: 12, Seed: 42, Converge: 10 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := discoveryFingerprint(res)
	if goldenDiscovery == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenDiscovery {
		t.Errorf("discovery replay diverged from golden engine behavior\n got:  %s\n want: %s", got, goldenDiscovery)
	}
}

// TestGoldenChurnRecoveryReplay pins the lifecycle machinery — crash
// (Kill), cold restart with identity preservation, staged rejoin and
// overlay self-healing — to the bit-for-bit replay contract: a fixed-seed
// mass-failure + recovery scenario must reproduce every query outcome,
// every view size and every network counter exactly.
func TestGoldenChurnRecoveryReplay(t *testing.T) {
	res, err := RunChurnRecovery(RecoverySpec{
		R: 12, Kills: 4, Queries: 8, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := recoveryFingerprint(res)
	if goldenRecovery == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenRecovery {
		t.Errorf("churn-recovery replay diverged from golden engine behavior\n got:  %s\n want: %s", got, goldenRecovery)
	}
}

// TestGoldenVolatilityReplay pins the self-healing rendezvous tier (see
// goldenVolatility) across engine and protocol refactors. Two sweep points
// share the spec: full attrition healed by promotion, and kill/rejoin churn
// healed by restarts bridging the promoted tier back together.
func TestGoldenVolatilityReplay(t *testing.T) {
	spec := VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
	}
	attrition, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.RejoinAfter = 3 * time.Minute
	churn, err := RunVolatility(spec)
	if err != nil {
		t.Fatal(err)
	}
	got := volatilityFingerprint(attrition) + " || " + volatilityFingerprint(churn)
	if goldenVolatility == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenVolatility {
		t.Errorf("volatility replay diverged from golden self-healing behavior\n got:  %s\n want: %s", got, goldenVolatility)
	}
}

// TestGoldenIslandMergeReplay pins the gossip-driven island merge (see
// goldenIslandMerge). Beyond the byte-identical fingerprint it asserts the
// headline claims directly: all surviving islands converge to a single
// peerview tier, and post-merge discovery success is 100%.
func TestGoldenIslandMergeReplay(t *testing.T) {
	res, err := RunVolatility(VolatilitySpec{
		R: 4, EdgesPerRdv: 2,
		KillEvery: []time.Duration{90 * time.Second},
		Kills:     4, Queries: 40, Seed: 42,
		IslandMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	pt := res.Points[0]
	if pt.Merge == nil {
		t.Fatal("IslandMerge spec produced no merge phase")
	}
	if !pt.Merge.Converged || !pt.Reconverged {
		t.Errorf("islands did not converge to a single tier: live=%d view=%.2f conv=%v",
			pt.LiveTier, pt.MeanView, pt.Merge.Converged)
	}
	if pt.Merge.Phase.Timeouts != 0 || pt.Merge.Phase.Succeeded == 0 {
		t.Errorf("post-merge discovery not 100%%: ok=%d timeouts=%d",
			pt.Merge.Phase.Succeeded, pt.Merge.Phase.Timeouts)
	}
	got := islandMergeFingerprint(res)
	if goldenIslandMerge == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenIslandMerge {
		t.Errorf("island-merge replay diverged from golden behavior\n got:  %s\n want: %s", got, goldenIslandMerge)
	}
}

// TestGoldenRoutingReplay pins the structured-routing bake-off (see
// goldenRouting): all four routing.Backend implementations, including the
// iterative Kademlia overlay and the resolver hop-echo extension the SRDI
// adapter reads, replay bit for bit.
func TestGoldenRoutingReplay(t *testing.T) {
	res, err := RunRouting(quickRoutingSpec())
	if err != nil {
		t.Fatal(err)
	}
	got := routingFingerprint(res)
	if goldenRouting == "UNSET" {
		t.Fatalf("capture golden:\n%s", got)
	}
	if got != goldenRouting {
		t.Errorf("routing bake-off replay diverged from golden behavior\n got:  %s\n want: %s", got, goldenRouting)
	}
}

// TestGoldenReplayTwice asserts run-to-run determinism inside one process:
// two identical specs yield identical fingerprints regardless of map
// iteration order, pooling, or allocator state.
func TestGoldenReplayTwice(t *testing.T) {
	spec := PeerviewSpec{R: 16, Topology: topology.Tree,
		Duration: 15 * time.Minute, Seed: 7}
	a, err := RunPeerview(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunPeerview(spec)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := peerviewFingerprint(a), peerviewFingerprint(b)
	if fa != fb {
		t.Errorf("same-seed replay diverged\n first:  %s\n second: %s", fa, fb)
	}
}
