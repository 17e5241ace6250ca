// Command dboxd hosts a Digibox testbed: the model store, digi
// runtime, kube cluster, MQTT broker, REST device gateway, trace log,
// and the control API that the dbox command-line tool drives.
//
// Usage:
//
//	dboxd [flags]
//
//	-ctl   addr     control API listen address   (default 127.0.0.1:7825)
//	-mqtt  addr     MQTT broker listen address   (default 127.0.0.1:1883)
//	-rest  addr     REST gateway listen address  (default 127.0.0.1:8080)
//	-repo  dir      local scene repository       (default ~/.dbox/repo)
//	-remote dir     remote scene repository path (shared directory)
//	-nodes n        number of simulated nodes    (default 1)
//	-node-capacity  pods per node                (default 4096)
//	-zone-delay-ms  inter-zone one-way delay when nodes > 1
//	-speed n        run the whole testbed at n× scenario time (finite)
//	-pprof addr     serve net/http/pprof on addr (off by default)
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/ctl"
)

func main() {
	var (
		ctlAddr   = flag.String("ctl", "127.0.0.1:7825", "control API listen address")
		mqttAddr  = flag.String("mqtt", "127.0.0.1:1883", "MQTT broker listen address")
		restAddr  = flag.String("rest", "127.0.0.1:8080", "REST gateway listen address")
		repoDir   = flag.String("repo", defaultRepoDir(), "local scene repository directory")
		remoteDir = flag.String("remote", "", "remote scene repository directory (optional)")
		nodes     = flag.Int("nodes", 1, "number of simulated cluster nodes")
		capacity  = flag.Int("node-capacity", 4096, "pod capacity per node")
		zoneDelay = flag.Int("zone-delay-ms", 0, "one-way delay between gateway zone and cluster zone (ms)")
		speedArg  = flag.String("speed", "1", "time-compression factor for the whole testbed (finite; \"max\" not allowed for a daemon)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	)
	flag.Parse()

	speed, err := clock.ParseSpeed(*speedArg)
	if err != nil {
		log.Fatalf("dboxd: %v", err)
	}
	if speed == clock.SpeedMax {
		// A long-lived daemon on a pure discrete-event clock would
		// burn through its keepalive and metrics timers without bound;
		// unpaced time only makes sense for bounded runs (dbox run).
		log.Fatalf("dboxd: -speed max is only valid for bounded runs; pick a finite factor")
	}

	opts := core.Options{
		TimeScale:    speed,
		BrokerAddr:   *mqttAddr,
		RESTAddr:     *restAddr,
		LocalRepoDir: *repoDir,
		// The wildcard observer closes publish→deliver spans so
		// /ctl/metrics latency histograms fill even when no application
		// client is subscribed.
		Observer: true,
	}
	if *remoteDir != "" {
		opts.RemoteRepoDir = *remoteDir
	}
	zone := "local"
	if *nodes > 1 || *zoneDelay > 0 {
		zone = "cluster"
	}
	for i := 0; i < *nodes; i++ {
		opts.Nodes = append(opts.Nodes, core.NodeSpec{
			Name:     fmt.Sprintf("node-%d", i),
			Capacity: *capacity,
			Zone:     zone,
		})
	}
	if *zoneDelay > 0 {
		opts.GatewayZone = "client"
		opts.ZoneDelays = []core.ZoneDelay{
			{A: "client", B: zone, Delay: time.Duration(*zoneDelay) * time.Millisecond},
		}
	}

	tb, err := ctl.NewTestbed(opts)
	if err != nil {
		log.Fatalf("dboxd: %v", err)
	}
	defer tb.Stop()

	srv := &ctl.Server{TB: tb}
	if err := srv.ListenAndServe(*ctlAddr); err != nil {
		log.Fatalf("dboxd: control API: %v", err)
	}
	defer srv.Close()

	if *pprofAddr != "" {
		// DefaultServeMux carries the net/http/pprof handlers.
		go func() {
			log.Printf("dboxd: pprof on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				log.Printf("dboxd: pprof: %v", err)
			}
		}()
	}

	log.Printf("dboxd: control API on %s", srv.Addr())
	log.Printf("dboxd: MQTT broker on %s", tb.BrokerAddr())
	log.Printf("dboxd: REST gateway on %s", tb.RESTAddr())
	log.Printf("dboxd: %d node(s), repo %s", *nodes, *repoDir)
	if speed != 1 {
		log.Printf("dboxd: time compression %sx — scenario time runs %s× faster than wall time",
			clock.FormatSpeed(speed), clock.FormatSpeed(speed))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("dboxd: shutting down")
}

func defaultRepoDir() string {
	home, err := os.UserHomeDir()
	if err != nil {
		return ".dbox/repo"
	}
	return filepath.Join(home, ".dbox", "repo")
}
