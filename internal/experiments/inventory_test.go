package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"jxta/internal/topology"
)

// A failure-inventory row's status.
const (
	statusOpen       = "open"       // the finding stands; its value is a ratchet a fix moves
	statusFixed      = "fixed"      // a named test fails if the finding comes back
	statusStructural = "structural" // explained by an argument written into the row
)

// inventoryRow is one finding of the failure inventory (ROADMAP item 7),
// numbered as there.
type inventoryRow struct {
	n       int
	finding string
	owner   string // the ROADMAP item that owns the finding
	status  string
	// value is an open row's current measurement, as its test asserts it.
	value string
	// heldBy names the tests that hold the row, each as "<directory under
	// internal/>.<test name>": for an open row the test that asserts value,
	// for a fixed row the tests that fail if the finding comes back.
	heldBy []string
}

var inventory = []inventoryRow{
	{n: 1, finding: "lookups fail while a quarter of the tier is dead for good", owner: "1(a)", status: statusOpen,
		value:  "discovery-churn (seed 42), permanent kill: 4,136 of 5,120 answered, ok_share 0.8078",
		heldBy: []string{"experiments.TestPermanentKillOkShare"}},
	{n: 2, finding: "full attrition at R=4 leaves a fragmented tier and lost lookups", owner: "1(a)", status: statusOpen,
		value:  "goldenVolatility: ok=23 to=17 live=3 reconv=false",
		heldBy: []string{"experiments.TestGoldenVolatilityReplay"}},
	{n: 3, finding: "island merge reconverges on a minority of seeds", owner: "1(b)", status: statusOpen,
		value:  "seeds 1-40: 9 reconverge, 24 answer 40/40 post-merge",
		heldBy: []string{"experiments.TestIslandMergeSeedSweep"}},
	{n: 4, finding: "post-churn lookups in the bake-off", owner: "1(c)", status: statusOpen,
		value:  "quick bake-off (n=16): srdi 10/12, chord 6/12, kademlia 12/12",
		heldBy: []string{"experiments.TestGoldenRoutingReplay"}},
	{n: 5, finding: "an edge that has looked up once is never Quiescent()", owner: "1(d)", status: statusFixed,
		heldBy: []string{"experiments.TestAnsweredLookupsLeaveNothingPending", "node.TestAnsweredLookupsLeaveNothingPendingOverTCP"}},
	{n: 6, finding: "steady-state lookups lost on seed 67 before anything is killed", owner: "2", status: statusOpen,
		value:  "discovery-churn (seed 67), lookup phase: 46 of 38,400 lost",
		heldBy: []string{"experiments.TestSeed67SteadyStateLosses"}},
	{n: 7, finding: "peerview-r200's views never cover the whole tier", owner: "1(a)", status: statusOpen,
		value:  "peerview-r200 (seed 42): view_coverage 0.9826 at 60 min",
		heldBy: []string{"experiments.TestPeerviewCoverageAtAnHour"}},
	{n: 8, finding: "the lease tables grow per message without a ceiling", owner: "3(d)", status: statusOpen,
		value:  "one handoff of 4,096 Cli elements: client table +4,096",
		heldBy: []string{"rendezvous.TestHandoffGrowsClientTable"}},
	{n: 9, finding: "a TCP peer that stops reading blocks Send", owner: "3(c)", status: statusFixed,
		heldBy: []string{"transport.TestSendWriteDeadline"}},
	{n: 10, finding: "a live timer that has already fired runs after Cancel", owner: "11", status: statusFixed,
		heldBy: []string{"env.TestRealCanceledTimerParkedOnLockNeverRuns", "env.TestEnvContract"}},
	{n: 11, finding: "a TCP peer whose frame header promises more bytes than arrive pins its reader", owner: "3(c)", status: statusFixed,
		heldBy: []string{"transport.TestPartialFrameDeadline"}},
	{n: 12, finding: "a cache search finds an advertisement whose other attribute and value concatenate to the key searched", owner: "6(c)", status: statusFixed,
		heldBy: []string{"cm.TestSearchKeepsAttributeAndValueApart"}},
}

// TestFailureInventory holds each row to its status and logs the summary
// line BENCH_<PR>.json carries as "inventory". An open row names its value
// and the test that measures it; a fixed row, the tests that hold the fix.
// Either stands only while those tests exist.
func TestFailureInventory(t *testing.T) {
	count := map[string]int{}
	for _, row := range inventory {
		count[row.status]++
		t.Run(fmt.Sprintf("row%02d", row.n), func(t *testing.T) {
			switch row.status {
			case statusOpen:
				if row.value == "" {
					t.Fatalf("row %d (%s) is open, but names no value", row.n, row.finding)
				}
			case statusFixed, statusStructural:
			default:
				t.Fatalf("row %d has status %q", row.n, row.status)
			}
			if row.status != statusStructural && len(row.heldBy) == 0 {
				t.Fatalf("row %d (%s) is %s, but no test holds it", row.n, row.finding, row.status)
			}
			for _, ref := range row.heldBy {
				if !testExists(t, ref) {
					t.Errorf("row %d (%s) is held by %s, which does not exist", row.n, row.finding, ref)
				}
			}
		})
	}
	t.Logf("inventory: %d open · %d fixed · %d structural", count[statusOpen], count[statusFixed], count[statusStructural])
}

// TestPeerviewCoverageAtAnHour is failure-inventory row 7 (ROADMAP item
// 1(a)), asserted as a floor: RunPeerview on the shape of the benchmark's
// peerview-r200 workload (200 rendezvous bootstrapped as a chain, seed 42)
// ends its 60 virtual minutes with the views short of the whole tier. With
// no peer dead, view_coverage is the mean view over the 199 others. A fix
// raises the floor.
func TestPeerviewCoverageAtAnHour(t *testing.T) {
	const floor = 0.9825 // measured: 0.982588
	const r = 200
	res, err := RunPeerview(PeerviewSpec{R: r, Topology: topology.Chain, Duration: 60 * time.Minute, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	coverage := res.MeanSize.Values[len(res.MeanSize.Values)-1] / (r - 1)
	t.Logf("view_coverage %.6f at 60 min", coverage)
	if coverage < floor {
		t.Fatalf("peerview-r200 ends at view_coverage %.6f, floor %.4f", coverage, floor)
	}
}

// TestPermanentKillOkShare is failure-inventory row 1 (ROADMAP item 1(a)),
// asserted as a floor: the benchmark's discovery-churn workload at seed 42,
// its traced run to the end. After the body (writes, reads, a quarter of the
// tier crashed and restarted, reads again) another quarter is killed for good
// and every edge reads at once, eight lookups two seconds apart, while leases
// fail over and views still hold the dead. The benchmark reports this phase's
// ok_share in its trace file; a fix raises the floor.
func TestPermanentKillOkShare(t *testing.T) {
	const floor, attempts = 4136, 5120 // measured: 4,136 of 5,120, ok_share 0.807813
	r := newChurnRun(t, 42)
	r.publish(30)
	r.lookup(t, 60, 0, 50*time.Millisecond)
	r.killQuarter(true)
	r.run(30*time.Second, 20*time.Minute, nil)
	r.lookup(t, 15, 2*time.Second, 500*time.Millisecond)
	r.killQuarter(false)
	attempted, ok := r.lookup(t, 8, 2*time.Second, 500*time.Millisecond)
	t.Logf("permanent kill: %d of %d lookups answered, ok_share %.6f", ok, attempted, float64(ok)/float64(attempted))
	if attempted != attempts || ok < floor {
		t.Fatalf("%d of %d lookups answered after a quarter of the tier died for good, floor %d of %d", ok, attempted, floor, attempts)
	}
}

// TestSeed67SteadyStateLosses is failure-inventory row 6 (ROADMAP item 2),
// asserted as a ceiling: the benchmark's discovery-churn workload at seed 67
// loses lookups in its steady-state read phase, before anything is killed,
// where seed 42 loses none. A fix lowers the ceiling.
func TestSeed67SteadyStateLosses(t *testing.T) {
	const ceiling = 46 // measured: 46 of 38,400
	r := newChurnRun(t, 67)
	r.publish(30)
	attempted, ok := r.lookup(t, 60, 0, 50*time.Millisecond)
	t.Logf("seed 67 steady state: %d of %d lookups lost", attempted-ok, attempted)
	if attempted-ok > ceiling {
		t.Fatalf("%d of %d steady-state lookups lost, ceiling %d", attempted-ok, attempted, ceiling)
	}
}

// testExists reports whether ref, "<directory under internal/>.<test name>",
// names a test function in that package's test files.
func testExists(t *testing.T, ref string) bool {
	dir, name, ok := strings.Cut(ref, ".")
	if !ok {
		t.Fatalf("malformed test reference %q", ref)
	}
	files, err := filepath.Glob(filepath.Join("..", dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "\nfunc "+name+"(t *testing.T) {") {
			return true
		}
	}
	return false
}
