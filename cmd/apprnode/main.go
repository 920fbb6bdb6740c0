// Apprnode: the networked deployment binary. One executable runs all
// three roles of the multi-process demo:
//
//	apprnode master -listen :7070 -metrics :9090
//	apprnode data -master host:7070 -dir /tmp/n0 -nodes 0,1,2 -rack r0 -zone z0 -listen :7101
//	apprnode status -master host:7070
//
// A data process serves erasure-code columns from a FileBackend over
// the length-prefixed TCP protocol (DESIGN.md §13) and heartbeats to
// the master; the master tracks placement and declares silent nodes
// dead within LivenessPolicy.DetectionBound(). `status` prints the
// master's node map and object catalog — handy for watching a kill
// and rejoin from a fourth terminal. See the README quick-start for a
// full four-DataNode walkthrough.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	netio "approxcode/internal/net"
	"approxcode/internal/obs"
)

func main() {
	log.SetFlags(log.Ltime | log.Lmicroseconds)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "master":
		err = runMaster(os.Args[2:])
	case "data":
		err = runData(os.Args[2:])
	case "status":
		err = runStatus(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "apprnode: unknown mode %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatalf("apprnode %s: %v", os.Args[1], err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `apprnode <mode> [flags]

modes:
  master   run the NameNode-role control plane (placement + liveness)
  data     run a DataNode serving columns from a directory
  status   print the master's node map and object catalog

run "apprnode <mode> -h" for per-mode flags.
`)
}

// metricsServer binds the -metrics address synchronously (so a bad
// address is an error at startup, not a background log line) and
// serves the observability surface on it.
func metricsServer(addr string, reg *obs.Registry) error {
	if addr == "" {
		return nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("metrics listener: %w", err)
	}
	obs.ServeOn(ln, reg, func(err error) { log.Printf("metrics: %v", err) })
	log.Printf("metrics on http://%s/metrics", ln.Addr())
	return nil
}

func waitForSignal() os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return <-ch
}

func runMaster(args []string) error {
	fs := flag.NewFlagSet("apprnode master", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:7070", "control-plane TCP address")
	metrics := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address")
	interval := fs.Duration("hb", 500*time.Millisecond, "expected heartbeat interval")
	suspect := fs.Int("suspect", 2, "missed heartbeats before a node is suspect")
	dead := fs.Int("dead", 4, "missed heartbeats before a node is dead")
	if err := fs.Parse(args); err != nil {
		return err
	}

	reg := obs.NewRegistry(true)
	policy := netio.LivenessPolicy{
		Interval:      *interval,
		SuspectMisses: *suspect,
		DeadMisses:    *dead,
	}
	m, err := netio.NewMaster(netio.MasterConfig{
		Listen:   *listen,
		Liveness: policy,
		Obs:      reg,
		// One coalesced wave per liveness sweep: a whole rack dying is
		// one repair decision, not one log line per process.
		OnDeadBatch: func(events []netio.DeadEvent) {
			var nodes []int
			for _, ev := range events {
				nodes = append(nodes, ev.Nodes...)
			}
			sort.Ints(nodes)
			log.Printf("DEAD wave: %d registration(s), nodes %v (one repair wave should target these)", len(events), nodes)
			for _, ev := range events {
				log.Printf("  incarnation %d: nodes %v rack=%q zone=%q", ev.Incarnation, ev.Nodes, ev.Rack, ev.Zone)
			}
		},
	})
	if err != nil {
		return err
	}
	defer m.Close()
	if err := metricsServer(*metrics, reg); err != nil {
		return err
	}
	log.Printf("master on %s (detection bound %v)", m.Addr(), policy.DetectionBound())
	sig := waitForSignal()
	log.Printf("got %v, shutting down", sig)
	return nil
}

func parseNodeList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	nodes := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n < 0 {
			return nil, fmt.Errorf("bad node index %q in -nodes", p)
		}
		nodes = append(nodes, n)
	}
	return nodes, nil
}

func runData(args []string) error {
	fs := flag.NewFlagSet("apprnode data", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "data-plane TCP address")
	advertise := fs.String("advertise", "", "address registered with the master (default: bound address)")
	master := fs.String("master", "", "master control-plane address (empty: static deployment, no heartbeats)")
	dir := fs.String("dir", "", "column storage directory (required)")
	nodesFlag := fs.String("nodes", "", "comma-separated node indexes to serve, e.g. 0,1,2 (default: whatever -dir already holds)")
	rack := fs.String("rack", "", "failure-domain rack label registered with the master, e.g. r0")
	zone := fs.String("zone", "", "failure-domain zone label registered with the master, e.g. z0")
	hb := fs.Duration("hb", 500*time.Millisecond, "heartbeat period (match the master's -hb)")
	metrics := fs.String("metrics", "", "serve /metrics and /debug/pprof on this address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	backend, err := netio.NewFileBackend(*dir)
	if err != nil {
		return err
	}
	defer backend.Close()
	nodes, err := parseNodeList(*nodesFlag)
	if err != nil {
		return err
	}
	if len(nodes) == 0 {
		// A restarted DataNode re-registers the node indexes its
		// directory already holds — the rejoin path needs no flags.
		if nodes, err = backend.Nodes(); err != nil {
			return err
		}
	}
	if *master != "" && len(nodes) == 0 {
		return fmt.Errorf("no node indexes: pass -nodes on first start (the directory is empty)")
	}

	reg := obs.NewRegistry(true)
	srv, err := netio.NewServer(netio.ServerConfig{
		Listen:    *listen,
		Advertise: *advertise,
		Backend:   backend,
		Nodes:     nodes,
		Master:    *master,
		Heartbeat: *hb,
		Rack:      *rack,
		Zone:      *zone,
		Obs:       reg,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	if err := metricsServer(*metrics, reg); err != nil {
		return err
	}
	where := ""
	if *rack != "" || *zone != "" {
		where = fmt.Sprintf(" (rack=%q zone=%q)", *rack, *zone)
	}
	log.Printf("datanode on %s serving nodes %v from %s%s", srv.Addr(), nodes, *dir, where)
	if *master != "" {
		log.Printf("heartbeating to %s every %v", *master, *hb)
	}
	sig := waitForSignal()
	log.Printf("got %v, shutting down", sig)
	return nil
}

func runStatus(args []string) error {
	fs := flag.NewFlagSet("apprnode status", flag.ExitOnError)
	master := fs.String("master", "127.0.0.1:7070", "master control-plane address")
	timeout := fs.Duration("timeout", 2*time.Second, "RPC timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}

	nodeMap, err := netio.FetchNodeMap(*master, *timeout)
	if err != nil {
		return err
	}
	objects, err := netio.ListObjects(*master, *timeout)
	if err != nil {
		return err
	}

	nodes := make([]int, 0, len(nodeMap))
	for n := range nodeMap {
		nodes = append(nodes, n)
	}
	sort.Ints(nodes)
	fmt.Printf("master %s: %d node(s)\n", *master, len(nodes))
	for _, n := range nodes {
		info := nodeMap[n]
		domain := ""
		if info.Rack != "" || info.Zone != "" {
			domain = fmt.Sprintf(" rack=%s zone=%s", info.Rack, info.Zone)
		}
		fmt.Printf("  node %-3d %-8s inc=%-4d %s%s\n", n, info.State, info.Incarnation, info.Addr, domain)
	}
	names := make([]string, 0, len(objects))
	for name := range objects {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%d object(s)\n", len(names))
	for _, name := range names {
		fmt.Printf("  %-24s %d stripe(s)\n", name, objects[name])
	}
	return nil
}
