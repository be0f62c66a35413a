package experiments

import (
	"fmt"
	"time"

	"jxta/internal/deploy"
	"jxta/internal/peerview"
	"jxta/internal/topology"
)

// Ablations quantify this reproduction's design choices: the tunables
// the paper discusses (§4.1's freshness-vs-bandwidth compromise) plus the
// implementation parameter this reproduction had to calibrate (the referral
// fan-out of the peerview gossip).

// AblationPoint is one parameter setting's steady-state outcome.
type AblationPoint struct {
	Label string `json:"label"`
	// PlateauL is the steady-state mean view size at the observed peer.
	PlateauL float64 `json:"plateau_l"`
	// MsgsPerPeerPerMin is the network-wide peerview bandwidth cost.
	MsgsPerPeerPerMin float64 `json:"msgs_per_peer_min"`
}

// AblationResult is one sweep over a single parameter.
type AblationResult struct {
	Parameter string
	R         int
	Points    []AblationPoint
}

// AblateReferrals sweeps ReferralsPerProbe — the gossip fan-out that sets
// the steady-state peerview size at large r (the calibration knob of this
// reproduction; JXTA-C's effective fan-out is not specified anywhere, so
// this ablation justifies the choice; PERFORMANCE_HISTORY.md, "the r=1,000
// peerview plateau", derives the referral batch size, of which this value
// is the floor).
func AblateReferrals(r int, values []int, duration time.Duration, seed int64) (AblationResult, error) {
	if len(values) == 0 {
		values = []int{1, 2, 3, 4}
	}
	labels, cfgs := make([]string, len(values)), make([]peerview.Config, len(values))
	for i, v := range values {
		labels[i], cfgs[i] = fmt.Sprintf("%d", v), peerview.Config{ReferralsPerProbe: v}
	}
	return ablate("ReferralsPerProbe", r, labels, cfgs, duration, seed)
}

// AblateInterval sweeps PEERVIEW_INTERVAL — the paper's second tuning
// suggestion ("decrease the interval of time between each iteration"),
// trading bandwidth for freshness.
func AblateInterval(r int, values []time.Duration, duration time.Duration, seed int64) (AblationResult, error) {
	if len(values) == 0 {
		values = []time.Duration{10 * time.Second, 30 * time.Second, 60 * time.Second}
	}
	labels, cfgs := make([]string, len(values)), make([]peerview.Config, len(values))
	for i, v := range values {
		labels[i], cfgs[i] = v.String(), peerview.Config{Interval: v}
	}
	return ablate("PEERVIEW_INTERVAL", r, labels, cfgs, duration, seed)
}

// AblateExpiry sweeps PVE_EXPIRATION — the paper's primary tuning
// suggestion, trading memory/staleness for completeness.
func AblateExpiry(r int, values []time.Duration, duration time.Duration, seed int64) (AblationResult, error) {
	if len(values) == 0 {
		values = []time.Duration{10 * time.Minute, 20 * time.Minute,
			40 * time.Minute, 365 * 24 * time.Hour}
	}
	labels, cfgs := make([]string, len(values)), make([]peerview.Config, len(values))
	for i, v := range values {
		labels[i], cfgs[i] = v.String(), peerview.Config{EntryExpiry: v}
		if v > 24*time.Hour {
			labels[i] = "inf"
		}
	}
	return ablate("PVE_EXPIRATION", r, labels, cfgs, duration, seed)
}

// ablate measures one steady-state point per (label, config) pair, in
// order, stopping at the first error.
func ablate(parameter string, r int, labels []string, cfgs []peerview.Config, duration time.Duration, seed int64) (AblationResult, error) {
	res := AblationResult{Parameter: parameter, R: r}
	for i, cfg := range cfgs {
		point, err := peerviewPoint(labels[i], r, duration, seed, cfg)
		if err != nil {
			return res, err
		}
		res.Points = append(res.Points, point)
	}
	return res, nil
}

// peerviewPoint runs one overlay with the given tunables and measures the
// steady state.
func peerviewPoint(label string, r int, duration time.Duration, seed int64, cfg peerview.Config) (AblationPoint, error) {
	if duration <= 0 {
		duration = 45 * time.Minute
	}
	o, err := deploy.Build(deploy.Spec{
		Seed:     seed,
		NumRdv:   r,
		Topology: topology.Chain,
		Peerview: cfg,
	})
	if err != nil {
		return AblationPoint{}, err
	}
	o.StartAll()
	// Steady-state window: ignore the first two thirds.
	warm := duration * 2 / 3
	o.Sched.Run(warm)
	warmMsgs := o.Net.Stats().Messages
	observed := o.Rdvs[r/2]
	sum, samples := 0.0, 0
	for t := warm; t <= duration; t += time.Minute {
		o.Sched.Run(t)
		sum += float64(observed.PeerView.Size())
		samples++
	}
	window := duration - warm
	msgs := float64(o.Net.Stats().Messages - warmMsgs)
	o.StopAll()
	return AblationPoint{
		Label:             label,
		PlateauL:          sum / float64(samples),
		MsgsPerPeerPerMin: msgs / float64(r) / window.Minutes(),
	}, nil
}

// AblateWalk contrasts discovery with and without the walk fallback — the
// LC-DHT's safety net. Disabling the walk in an inconsistent overlay turns
// replica misses into timeouts, which is exactly why JXTA ships it.
type WalkAblation struct {
	R                int
	WithWalkOK       int
	WithWalkMeanMs   float64
	WithoutWalkOK    int
	WithoutWalkMean  float64
	Queries          int
	WithoutWalkLost  int
	WithWalkTimeouts int
}

// AblateWalk measures both modes at a size where peerviews are incomplete.
func AblateWalk(r, queries int, seed int64) (WalkAblation, error) {
	res := WalkAblation{R: r, Queries: queries}
	with, err := RunDiscovery(DiscoverySpec{R: r, Queries: queries, Seed: seed})
	if err != nil {
		return res, err
	}
	res.WithWalkOK = with.Latency.N()
	res.WithWalkMeanMs = with.MeanMs
	res.WithWalkTimeouts = with.Timeouts

	without, err := RunDiscovery(DiscoverySpec{R: r, Queries: queries, Seed: seed,
		DisableWalk: true})
	if err != nil {
		return res, err
	}
	res.WithoutWalkOK = without.Latency.N()
	res.WithoutWalkMean = without.MeanMs
	res.WithoutWalkLost = without.Timeouts
	return res, nil
}
