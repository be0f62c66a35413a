package main

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"jxta/internal/advertisement"
	"jxta/internal/advstore"
	"jxta/internal/cm"
	"jxta/internal/discovery"
	"jxta/internal/document"
	"jxta/internal/endpoint"
	"jxta/internal/ids"
	"jxta/internal/message"
	"jxta/internal/metrics"
	"jxta/internal/netmodel"
	"jxta/internal/node"
	"jxta/internal/simnet"
	"jxta/internal/srdi"
	"jxta/internal/transport"
)

// A layer kernel calls one module's public function in a loop, from
// outside, on the traced workload's own messages and advertisements. It
// says what one call costs in isolation; it does not say how often the
// workload makes the call (the counters do).

// kernelBudget is how long each kernel loops (-quick runs only smoke them).
func kernelBudget(quick bool) time.Duration {
	if quick {
		return 5 * time.Millisecond
	}
	return 150 * time.Millisecond
}

// sink keeps results alive so the compiler cannot drop a measured call.
var sink any

// timeKernel runs fn(n) — n calls — in batches until the budget is spent and
// returns the median batch's nanoseconds per call and the mean allocations
// per call.
func timeKernel(budget time.Duration, batch int, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	fn(batch) // warm caches and pools
	var perOp []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	calls := 0
	for start := time.Now(); time.Since(start) < budget || len(perOp) < 3; {
		t0 := time.Now()
		fn(batch)
		perOp = append(perOp, float64(time.Since(t0).Nanoseconds())/float64(batch))
		calls += batch
	}
	runtime.ReadMemStats(&ms1)
	return median(perOp), float64(ms1.Mallocs-ms0.Mallocs) / float64(calls)
}

// corpus is the sample of one traced workload the kernels run on.
type corpus struct {
	msgs       []*message.Message
	payloads   []*message.Message // the messages without their endpoint envelope
	wire       [][]byte           // the messages, marshalled
	docs       [][]byte           // advertisement documents found inside the messages
	elems      []*document.Element
	advs       []advertisement.Advertisement
	distinct   []advertisement.Advertisement // one per distinct document
	ids        []ids.ID
	idStrings  []string
	docsPerMsg float64
}

// buildCorpus digs the advertisements out of the sampled messages: an
// element holds one either directly (peerview, lease) or as a child of a
// response document (discovery).
func buildCorpus(msgs []*message.Message, seed int64) *corpus {
	c := &corpus{msgs: msgs}
	seen := make(map[string]bool)
	add := func(e *document.Element) {
		adv, err := advertisement.Decode(e)
		if err != nil {
			return
		}
		raw, err := e.Marshal()
		if err != nil {
			return
		}
		c.docs = append(c.docs, raw)
		c.elems = append(c.elems, e)
		c.advs = append(c.advs, adv)
		if !seen[string(raw)] {
			seen[string(raw)] = true
			c.distinct = append(c.distinct, adv)
		}
	}
	for _, m := range msgs {
		c.wire = append(c.wire, m.Marshal())
		payload := message.New()
		for _, el := range m.Elements() {
			if el.Namespace != "ep" { // the envelope endpoint.Send adds
				payload.Add(el.Namespace, el.Name, el.Data)
			}
		}
		c.payloads = append(c.payloads, payload)
		for _, el := range m.Elements() {
			if len(el.Data) == 0 || el.Data[0] != '<' {
				continue
			}
			root, err := document.Unmarshal(el.Data)
			if err != nil {
				continue
			}
			before := len(c.docs)
			add(root)
			if len(c.docs) == before {
				for _, child := range root.Children {
					add(child)
				}
			}
		}
	}
	if len(msgs) > 0 {
		c.docsPerMsg = float64(len(c.docs)) / float64(len(msgs))
	}
	// A workload whose sample carried no advertisement (or no message at
	// all) still gets kernels: on the advertisements it would publish.
	for k := 0; len(c.distinct) < 16; k++ {
		nm := advName(seed, 0, k)
		adv := &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, nm), Name: nm}
		add(adv.Document())
	}
	if len(c.msgs) == 0 {
		m := message.New().Add("bench", "Adv", c.docs[0])
		c.msgs, c.payloads, c.wire = []*message.Message{m}, []*message.Message{m}, [][]byte{m.Marshal()}
	}
	for _, a := range c.advs {
		c.ids = append(c.ids, a.ID())
		c.idStrings = append(c.idStrings, a.ID().String())
	}
	return c
}

// kernelSizes are the workload's own sizes the stateful kernels run at.
type kernelSizes struct {
	pending int // scheduler depth
	srdi    int // tuples in the largest rendezvous index
	cache   int // records in the largest cache
	spec    node.Config
}

// runKernels times every layer kernel and returns the per-layer metrics
// they define. tcp runs the loopback TCP kernel (live workload only: the
// simulated workloads never touch a socket).
func runKernels(c *corpus, sz kernelSizes, seed int64, tcp bool, budget time.Duration) (map[string]float64, error) {
	out := make(map[string]float64)
	timeKernel := func(batch int, fn func(n int)) (float64, float64) { return timeKernel(budget, batch, fn) }
	put := func(prefix string, ns, allocs float64) {
		out[prefix+"_ns"] = ns
		out[prefix+"_allocs"] = allocs
	}
	nd, nm := len(c.docs), len(c.msgs)

	// document, advertisement: the XML codec.
	ns, al := timeKernel(nd, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := c.elems[i%nd].Marshal()
			sink = b
		}
	})
	put("document.marshal", ns, al)
	ns, al = timeKernel(nd, func(n int) {
		for i := 0; i < n; i++ {
			e, _ := document.Unmarshal(c.docs[i%nd])
			sink = e
		}
	})
	put("document.unmarshal", ns, al)
	ns, al = timeKernel(nd, func(n int) {
		for i := 0; i < n; i++ {
			b, _ := advertisement.EncodeXML(c.advs[i%nd])
			sink = b
		}
	})
	put("advertisement.encode_xml", ns, al)
	ns, al = timeKernel(nd, func(n int) {
		for i := 0; i < n; i++ {
			a, _ := advertisement.DecodeXML(c.docs[i%nd])
			sink = a
		}
	})
	put("advertisement.decode_xml", ns, al)

	// advstore: a hit returns the canonical instance, a miss adopts one.
	store := advstore.New()
	for _, a := range c.distinct {
		store.Intern(a)
	}
	ns, al = timeKernel(nd, func(n int) {
		for i := 0; i < n; i++ {
			store.Intern(c.advs[i%nd]).Release()
		}
	})
	put("advstore.intern_hit", ns, al)
	ndis := len(c.distinct)
	ns, _ = timeKernel(ndis, func(n int) {
		for done := 0; done < n; done += ndis {
			fresh := advstore.New()
			for _, a := range c.distinct {
				sink = fresh.Intern(a)
			}
		}
	})
	out["advstore.intern_miss_ns"] = ns

	// message: the binary frame codec and the per-hop copy.
	ns, al = timeKernel(nm, func(n int) {
		for i := 0; i < n; i++ {
			sink = c.msgs[i%nm].Marshal()
		}
	})
	put("message.marshal", ns, al)
	ns, al = timeKernel(nm, func(n int) {
		for i := 0; i < n; i++ {
			m, _ := message.Unmarshal(c.wire[i%nm])
			sink = m
		}
	})
	put("message.unmarshal", ns, al)
	ns, al = timeKernel(nm, func(n int) {
		for i := 0; i < n; i++ {
			sink = c.msgs[i%nm].Clone()
		}
	})
	put("message.clone", ns, al)

	nid := len(c.ids)
	out["ids.parse_ns"], _ = timeKernel(nid, func(n int) {
		for i := 0; i < n; i++ {
			id, _ := ids.Parse(c.idStrings[i%nid])
			sink = id
		}
	})
	out["ids.string_ns"], _ = timeKernel(nid, func(n int) {
		for i := 0; i < n; i++ {
			sink = c.ids[i%nid].String()
		}
	})

	// simnet: one push and one pop with the workload's number of timers
	// pending. Each fired timer re-arms itself, so the depth holds.
	if sz.pending > 0 {
		sched := simnet.NewScheduler(seed)
		rng := sched.DeriveRand(1)
		var rearm func()
		rearm = func() { sched.After(time.Duration(1+rng.Intn(60_000))*time.Millisecond, rearm) }
		for i := 0; i < sz.pending; i++ {
			rearm()
		}
		out["simnet.push_pop_ns"], _ = timeKernel(4096, func(n int) {
			for i := 0; i < n; i++ {
				sched.Step()
			}
		})
	}

	// transport.Sim and endpoint: send one message and run the scheduler
	// until the receiver's handler has it.
	{
		sched := simnet.NewScheduler(seed)
		net := transport.NewNetwork(sched, netmodel.Grid5000())
		a, err := net.Attach("kernel-a", netmodel.Rennes)
		if err != nil {
			return nil, err
		}
		b, err := net.Attach("kernel-b", netmodel.Sophia)
		if err != nil {
			return nil, err
		}
		got := 0
		b.SetHandler(func(transport.Addr, *message.Message) { got++ })
		ns, al = timeKernel(nm, func(n int) {
			for i := 0; i < n; i++ {
				_ = a.Send(b.Addr(), c.msgs[i%nm]) // a send to an attached peer cannot fail
				sched.RunAll()
			}
		})
		put("transport.sim_send_deliver", ns, al)
		if got == 0 {
			return nil, fmt.Errorf("transport.Sim kernel delivered nothing")
		}

		ea, eb := sched.NewEnv("kernel-ep-a"), sched.NewEnv("kernel-ep-b")
		ta, err := net.Attach("kernel-ep-a", netmodel.Rennes)
		if err != nil {
			return nil, err
		}
		tb, err := net.Attach("kernel-ep-b", netmodel.Sophia)
		if err != nil {
			return nil, err
		}
		ida, idb := ids.NewRandom(ids.KindPeer, ea.Rand()), ids.NewRandom(ids.KindPeer, eb.Rand())
		epa, epb := endpoint.New(ea, ida, ta), endpoint.New(eb, idb, tb)
		epa.AddRoute(idb, tb.Addr())
		got = 0
		epb.Register("bench.kernel", func(ids.ID, *message.Message) { got++ })
		ns, al = timeKernel(nm, func(n int) {
			for i := 0; i < n; i++ {
				if err := epa.Send(idb, "bench.kernel", c.payloads[i%nm]); err != nil {
					panic(err) // the route was added above
				}
				sched.RunAll()
			}
		})
		put("endpoint.send_deliver", ns, al)
		if got == 0 {
			return nil, fmt.Errorf("endpoint kernel delivered nothing")
		}
	}

	if tcp {
		ns, al, err := tcpKernel(c, budget)
		if err != nil {
			return nil, err
		}
		put("transport.tcp_send_recv", ns, al)
	}

	// srdi and cm at the workload's largest index and cache.
	{
		sched := simnet.NewScheduler(seed)
		e := sched.NewEnv("kernel-index")
		size := sz.srdi
		if size < 64 {
			size = 64
		}
		pub := ids.NewRandom(ids.KindPeer, e.Rand())
		tuples := make([]srdi.Tuple, size)
		for i := range tuples {
			tuples[i] = srdi.Tuple{Key: "ResourceName" + advName(seed, i%997, i), Publisher: pub, PublisherAddr: "sim://kernel/pub", Lifetime: time.Hour}
		}
		var idx *srdi.Index
		out["srdi.add_ns"], _ = timeKernel(size, func(n int) {
			for done := 0; done < n; done += size {
				idx = srdi.New(e)
				for _, t := range tuples {
					idx.Add(t)
				}
			}
		})
		out["srdi.publishers_ns"], _ = timeKernel(size, func(n int) {
			for i := 0; i < n; i++ {
				sink = idx.Publishers(tuples[i%size].Key)
			}
		})

		recs := sz.cache
		if recs < 64 {
			recs = 64
		}
		advs := make([]advertisement.Advertisement, recs)
		for i := range advs {
			nm := advName(seed, 1, i)
			advs[i] = &advertisement.Resource{ResID: ids.FromName(ids.KindAdv, nm), Name: nm}
		}
		var cache *cm.Cache
		ns, al = timeKernel(recs, func(n int) {
			for done := 0; done < n; done += recs {
				cache = cm.NewWithStore(e, advstore.New())
				for _, a := range advs {
					cache.Put(a, time.Hour, true)
				}
			}
		})
		put("cm.put", ns, al)
		out["cm.search_ns"], _ = timeKernel(recs, func(n int) {
			for i := 0; i < n; i++ {
				sink = cache.Search("Resource", "Name", advs[i%recs].(*advertisement.Resource).Name)
			}
		})
	}

	// node.New: assembling one peer's full stack, as the workload's most
	// numerous peers are configured.
	{
		const batch = 64
		ns, al = timeKernel(batch, func(n int) {
			sched := simnet.NewScheduler(seed)
			net := transport.NewNetwork(sched, netmodel.Grid5000())
			store := advstore.New()
			var lean *metrics.Registry
			if sz.spec.Metrics != nil {
				lean = metrics.NewRegistry()
			}
			for i := 0; i < n; i++ {
				name := fmt.Sprintf("kernel-node-%d", i)
				tr, err := net.Attach(name, netmodel.Rennes)
				if err != nil {
					panic(err) // names are unique within this fresh network
				}
				cfg := sz.spec
				cfg.Name, cfg.AdvStore, cfg.Metrics = name, store, lean
				sink = node.New(sched.NewEnv(name), tr, cfg)
			}
		})
		put("node.new", ns, al)
	}

	ctr := metrics.NewRegistry().Counter("bench_kernel_total", "Kernel counter.")
	out["metrics.counter_inc_ns"], _ = timeKernel(1<<16, func(n int) {
		for i := 0; i < n; i++ {
			ctr.Inc()
		}
	})
	return out, nil
}

// tcpKernel streams the corpus one way over a loopback TCP connection and
// waits for the last message: framing, marshal, unmarshal and the socket.
func tcpKernel(c *corpus, budget time.Duration) (nsPerOp, allocsPerOp float64, err error) {
	a, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("tcp kernel: %w", err)
	}
	defer a.Close()
	b, err := transport.ListenTCP("127.0.0.1:0")
	if err != nil {
		return 0, 0, fmt.Errorf("tcp kernel: %w", err)
	}
	defer b.Close()
	arrived := make(chan struct{}, 1)
	var want, got atomic.Int64
	b.SetHandler(func(transport.Addr, *message.Message) {
		if got.Add(1) == want.Load() {
			arrived <- struct{}{}
		}
	})
	nm := len(c.msgs)
	var sendErr error
	nsPerOp, allocsPerOp = timeKernel(budget, 2048, func(n int) {
		got.Store(0)
		want.Store(int64(n))
		for i := 0; i < n; i++ {
			if err := a.Send(b.Addr(), c.msgs[i%nm]); err != nil {
				sendErr = err
				return
			}
		}
		<-arrived
	})
	return nsPerOp, allocsPerOp, sendErr
}

// kernelNodeConfig is the node.Config the workload's most numerous peers
// are built with, for the node.New kernel.
func kernelNodeConfig(workload string) node.Config {
	cfg := node.Config{Role: node.Rendezvous, Discovery: discovery.DefaultConfig()}
	switch workload {
	case wlEdges:
		cfg.Role = node.Edge
		cfg.Metrics = metrics.NewRegistry() // marks lean mode; replaced per batch
	case wlChurn:
		cfg.Role = node.Edge
	case wlLive:
		cfg.Role = node.Edge
		cfg.Discovery = discovery.Config{}
	}
	return cfg
}
