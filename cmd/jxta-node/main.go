// Command jxta-node runs one real JXTA peer over TCP — the same protocol
// stack the simulator exercises at scale, bound to a live socket. Start a
// rendezvous, attach edges to it, publish and search:
//
//	jxta-node -rdv -listen 127.0.0.1:9701 -name rdv1
//	jxta-node -listen 127.0.0.1:9702 -name pub \
//	          -seed-addr tcp://127.0.0.1:9701 -publish mydata -wait 5s
//	jxta-node -listen 127.0.0.1:9703 -name searcher \
//	          -seed-addr tcp://127.0.0.1:9701 -search mydata -wait 10s
//
// The seed's peer ID is discovered automatically through the endpoint hello
// bootstrap, so only its address needs configuring.
//
// The dynamic rendezvous tier is available on live TCP overlays too:
// -selfheal lets edges elect and promote a replacement when the whole
// rendezvous tier is gone (and makes a Ctrl-C'd rendezvous hand its leases
// and SRDI index to a successor), and -islandmerge, which requires
// -selfheal, lets fragmented islands find each other again through gossiped
// tier rumors. Pass the same flags to every node of a deployment.
//
// Observability is opt-in: -admin host:port serves /metrics (Prometheus
// text exposition of every protocol component's counters, gauges and
// histograms), /healthz (lifecycle + lease state; 200 only when started
// and connected), /statusz (JSON: health, flattened metrics, the protocol
// event-trace ring of promotions, failovers and lease transitions) and the
// standard /debug/pprof profiler endpoints. Serving metrics is a pure
// observation: scrapes serialize with the protocol loop and change no
// protocol behaviour.
//
// Shutdown is graceful on SIGINT/SIGTERM: the node tears its services down
// in reverse start order — the rendezvous lease is cancelled so the
// super-peer drops this client immediately instead of waiting for expiry,
// every protocol timer is cancelled, and the TCP transport closes last.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"jxta/internal/admin"
	"jxta/internal/advertisement"
	"jxta/internal/discovery"
	"jxta/internal/env"
	"jxta/internal/ids"
	"jxta/internal/node"
	"jxta/internal/peerview"
	"jxta/internal/rendezvous"
	"jxta/internal/transport"
)

var (
	rdvFlag     = flag.Bool("rdv", false, "run as a rendezvous peer")
	listenFlag  = flag.String("listen", "127.0.0.1:0", "TCP listen host:port")
	seedAddr    = flag.String("seed-addr", "", "seed rendezvous transport address (tcp://host:port)")
	nameFlag    = flag.String("name", "peer", "peer name")
	publishFlag = flag.String("publish", "", "publish a resource advertisement with this name")
	searchFlag  = flag.String("search", "", "search for a resource advertisement with this name")
	waitFlag    = flag.Duration("wait", 0, "exit after this long (0 = run until interrupt)")
	rngSeed     = flag.Int64("rngseed", 0, "peer ID RNG seed (0 = time-based)")
	adminFlag   = flag.String("admin", "", "serve /metrics, /healthz, /statusz and /debug/pprof on this host:port (empty = off)")
	selfHeal    = flag.Bool("selfheal", false, "enable the self-healing rendezvous tier: lease grants carry failover alternates and the client roster, edges elect and promote a successor when every rendezvous is gone, a graceful shutdown hands the lease table and SRDI index off")
	islandMerge = flag.Bool("islandmerge", false, "enable gossip-driven island merging: lease traffic piggybacks signed tier rumors, fragmented rendezvous islands probe each other and merge their peerviews (requires -selfheal)")
)

// leaseConfig maps the two tier flags onto the lease protocol's three legal
// states: paper-faithful, self-heal, and self-heal with island merge. An
// island merge without self-healing is a fourth state no experiment runs.
func leaseConfig(selfHeal, islandMerge bool) (rendezvous.Config, error) {
	if islandMerge && !selfHeal {
		return rendezvous.Config{}, errors.New("-islandmerge requires -selfheal")
	}
	return rendezvous.Config{SelfHeal: selfHeal, IslandMerge: islandMerge}, nil
}

func main() {
	flag.Parse()
	lease, err := leaseConfig(*selfHeal, *islandMerge)
	if err != nil {
		fmt.Fprintln(os.Stderr, "jxta-node:", err)
		flag.Usage()
		os.Exit(2)
	}
	seed := *rngSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	tr, err := transport.ListenTCP(*listenFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer tr.Close()
	e := env.NewReal(*nameFlag, seed)

	role := node.Edge
	if *rdvFlag {
		role = node.Rendezvous
	}
	var n *node.Node
	e.Locked(func() {
		n = node.New(e, tr, node.Config{
			Name:      *nameFlag,
			Role:      role,
			Discovery: discovery.DefaultConfig(),
			Lease:     lease,
		})
		n.Start()
	})
	fmt.Printf("peer %s (%s) listening on %s\n", n.ID, role, tr.Addr())

	if *adminFlag != "" {
		srv, err := admin.Serve(*adminFlag, admin.Options{
			Registry: n.Metrics.Registry,
			Trace:    n.Rendezvous.Trace(),
			Locked:   e.Locked,
			Health: func() admin.Health {
				h := admin.Health{Started: n.Started()}
				if n.IsRendezvous() {
					h.Role, h.Connected = "rendezvous", n.Started()
				} else {
					rdv, ok := n.Rendezvous.ConnectedRdv()
					h.Role, h.Connected = "edge", ok
					if ok {
						h.Detail = "lease from " + rdv.Short()
					}
				}
				return h
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Printf("admin endpoints on http://%s/ (/metrics /healthz /statusz /debug/pprof)\n", srv.Addr())
	}

	if *seedAddr != "" {
		// The lease listener goes in BEFORE the hello kicks the join off, so
		// the grant cannot slip between a poll and a sleep — the protocol
		// callback delivers the transition the moment it commits (the same
		// transition the event trace records). The channel is buffered and
		// the send non-blocking: later failover transitions must never stall
		// the protocol loop on a channel nobody reads anymore.
		leased := make(chan ids.ID, 1)
		joined := make(chan bool, 1)
		e.Locked(func() {
			n.Rendezvous.AddLeaseListener(func(rdv ids.ID, connected bool) {
				if connected {
					select {
					case leased <- rdv:
					default:
					}
				}
			})
			n.Endpoint.Hello(transport.Addr(*seedAddr), func(peer ids.ID, ok bool) {
				if !ok {
					joined <- false
					return
				}
				fmt.Printf("seed %s is peer %s\n", *seedAddr, peer.Short())
				n.AddSeed(peerview.Seed{ID: peer, Addr: transport.Addr(*seedAddr)})
				joined <- true
			})
		})
		if !<-joined {
			fmt.Fprintln(os.Stderr, "seed did not answer hello")
			os.Exit(1)
		}
		if !*rdvFlag {
			// Wait for the lease grant event (edges only; a rendezvous is
			// connected by construction).
			select {
			case rdv := <-leased:
				fmt.Printf("lease granted by %s\n", rdv.Short())
			case <-time.After(15 * time.Second):
				fmt.Fprintln(os.Stderr, "no lease within 15s; continuing unconnected")
			}
		}
	}

	if *publishFlag != "" {
		e.Locked(func() {
			adv := &advResource{name: *publishFlag, owner: n.ID}
			n.Discovery.Publish(adv.build(), 0)
		})
		fmt.Printf("published resource %q\n", *publishFlag)
	}
	if *searchFlag != "" {
		found := make(chan string, 1) // the lookup's one answer, or its time-out
		e.Locked(func() {
			n.Discovery.Query("Resource", "Name", *searchFlag,
				func(r discovery.Result) {
					found <- fmt.Sprintf("found %d advertisement(s) from %s in %v",
						len(r.Advs), r.From.Short(), r.Elapsed.Round(time.Millisecond))
				},
				func() { found <- "search timed out" })
		})
		select {
		case msg := <-found:
			fmt.Println(msg)
		case <-time.After(40 * time.Second):
			fmt.Println("search never resolved")
		}
	}

	if *waitFlag > 0 {
		time.Sleep(*waitFlag)
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		s := <-sig
		fmt.Printf("%s: graceful shutdown (lease cancel)\n", s)
	}
	// Full teardown: lease cancelled, timers cancelled — under the env lock,
	// like every protocol action. The transport must close OUTSIDE the lock
	// (TCP.Close waits for reader goroutines, which deliver through the same
	// lock); the deferred tr.Close handles it on the way out.
	e.Locked(func() { n.Stop() })
}

// advResource builds the published resource advertisement.
type advResource struct {
	name  string
	owner ids.ID
}

func (a *advResource) build() *advertisement.Resource {
	return &advertisement.Resource{
		ResID: ids.FromName(ids.KindAdv, a.owner.String()+"/"+a.name),
		Name:  a.name,
	}
}
