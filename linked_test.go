package jxta

import (
	"bufio"
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// unlinked names one function declared in a non-test file under internal/
// that no binary links, and why it stays.
type unlinked struct {
	fn, reason string
}

// unlinkeds is the dead-code audit as a ratchet: a function that none of
// the binaries links is dead code (ROADMAP aim 2) unless a test needs it, so
// a new one needs a row that names that test, and a function that is linked
// again, or deleted, takes its row with it. A function is named as
// "package.Func" or "package.Type.Method".
var unlinkeds = []unlinked{
	{"jxta/internal/document.Element.Attr", "the tree is the readers' reference: advertisement's tree decoders (FuzzDecodeXML) read a Resource's attribute with it"},
	{"jxta/internal/document.Element.Child", "ChildText's lookup; document's TestBuilderAccessors and TestCloneIsDeep walk the tree with it"},
	{"jxta/internal/document.Element.ChildText", "the tree is the readers' reference: discovery's decode*Tree (TestReadersMatchTreeDecoders) and advertisement's tree decoders read fields with it"},
	{"jxta/internal/document.Element.Clone", "part of the tree kept whole as the readers' reference (ROADMAP 16); document's TestCloneIsDeep and TestCloneNil"},
	{"jxta/internal/document.Element.Each", "the tree is the readers' reference: advertisement's tree decoders read a Peer's addresses and a Resource's attributes with it"},
	{"jxta/internal/document.Element.Equal", "TestStrictAgreesWithUnmarshal and the tree round trips compare decoded trees with it"},
	{"jxta/internal/endpoint.Endpoint.KnownPeers", "an observable: FuzzDispatch holds dispatch to the routes it may change, and experiments' TestHibernatingEdgeReportsItsRoutes and TestAnsweredLookupsLeaveNothingPending read an edge's routes"},
	{"jxta/internal/ids.SortIDs", "the tests' reference order, now that every table a node keeps in ID order is kept sorted: ids' TestSortIDsSmall and TestSortProperty, peerview's TestNeighborsAreAdjacentInIDOrder, discovery's TestReplicaConsistencyProperty and TestReplicaDistributionUniform, and rendezvous' walk tests and TestRosterAndSuccessorTakeTheLowestFreshIDs sort the view or the clients they expect"},
	{"jxta/internal/metrics.Series.CSV", "an observable: experiments' peerviewFingerprint (the determinism goldens) hashes a series through it"},
	{"jxta/internal/netmodel.Uniform", "the constant-latency fabric of the unit tests of transport, endpoint, resolver, peerview, rendezvous, discovery and node"},
	{"jxta/internal/rendezvous.Service.Dormant", "an observable: TestFailoverBoundedWithoutSelfHeal and TestDormantEdgeRevivedByTierProbe assert an edge gave up and came back"},
	{"jxta/internal/rendezvous.Service.HasClient", "an observable: node's TestStartConnectsEdge, TestRestartRearmsTheSameTimers and TestLeaseSurvivesOverTCP assert whether a rendezvous holds an edge's lease; the server half's own checks read its table"},
	{"jxta/internal/simnet.NodeEnv.RandResident", "an observable: experiments' idle-edge tests assert a quiet edge holds no RNG register"},
	{"jxta/internal/transport.Network.Model", "experiments' loss tests (failure_test.go) raise the LossRate of a built overlay through it; deploy has no loss option"},
}

// binaries are every main package of the repository: the two commands, the
// four examples and the benchmark (a module of its own).
var binaries = []struct{ dir, pkg string }{
	{".", "./cmd/jxta-bench"},
	{".", "./cmd/jxta-node"},
	{".", "./examples/filesharing"},
	{".", "./examples/gridresource"},
	{".", "./examples/quickstart"},
	{".", "./examples/tcpoverlay"},
	{"benchmark", "."},
}

// TestEveryFunctionLinked builds every binary with inlining off, so that a
// called function keeps its symbol, and holds the functions declared under
// internal/ to the union of their symbol tables.
func TestEveryFunctionLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds seven binaries")
	}
	declared := declaredFuncs(t)
	linked := map[string]bool{}
	out := t.TempDir()
	for i, b := range binaries {
		bin := filepath.Join(out, strings.Repeat("b", i+1))
		build := exec.Command("go", "build", "-gcflags=all=-l", "-o", bin, b.pkg)
		build.Dir = b.dir
		if msg, err := build.CombinedOutput(); err != nil {
			t.Fatalf("go build %s in %s: %v\n%s", b.pkg, b.dir, err, msg)
		}
		nm, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.pkg, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(nm))
		for sc.Scan() {
			if f := strings.Fields(sc.Text()); len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolKey(f[2])] = true
			}
		}
	}
	var dead []string
	for fn := range declared {
		if !linked[fn] {
			dead = append(dead, fn)
		}
	}
	slices.Sort(dead)
	for _, fn := range dead {
		if !slices.ContainsFunc(unlinkeds, func(u unlinked) bool { return u.fn == fn }) {
			t.Errorf("%s is linked into no binary: delete it, or add a row naming the test that needs it", fn)
		}
	}
	for _, u := range unlinkeds {
		switch {
		case !declared[u.fn]:
			t.Errorf("row %s names a function that no longer exists", u.fn)
		case !slices.Contains(dead, u.fn):
			t.Errorf("row %s names a function a binary links", u.fn)
		case u.reason == "":
			t.Errorf("row %s gives no reason", u.fn)
		}
	}
	if t.Failed() {
		return
	}
	t.Logf("%d functions declared under internal/, %d unlinked, each with a row", len(declared), len(dead))
}

// declaredFuncs parses the files go list builds (so build tags resolve as
// they do for the binaries) of every package under internal/, and returns
// each function and method by its key.
func declaredFuncs(t *testing.T) map[string]bool {
	t.Helper()
	list, err := exec.Command("go", "list", "-json", "./internal/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	declared := map[string]bool{}
	fset := token.NewFileSet()
	dec := json.NewDecoder(bytes.NewReader(list))
	for dec.More() {
		var pkg struct {
			Dir, ImportPath string
			GoFiles         []string
		}
		if err := dec.Decode(&pkg); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				key := pkg.ImportPath + "." + fd.Name.Name
				if fd.Recv != nil {
					key = pkg.ImportPath + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				declared[key] = true
			}
		}
	}
	return declared
}

// recvName is a receiver's type name without pointer or type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// symbolKey maps a linker symbol to a declaredFuncs key: it drops the
// pointer receiver's "(*" and ")" and every instantiation's "[...]", so a
// generic function matches by its name.
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		switch c := sym[i]; {
		case c == '[':
			depth++
		case c == ']':
			depth--
		case depth > 0:
		case c == '(' || c == ')' || c == '*':
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}
