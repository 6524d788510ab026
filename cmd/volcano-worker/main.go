// Command volcano-worker executes plan fragments on behalf of a
// volcano-serve coordinator. It opens the same durable database file the
// coordinator serves (a replica of the shared volume), binds an HTTP
// dispatch address, and registers with the coordinator:
//
//	volcano-serve -db db.vol -addr :8080 -dist &
//	volcano-worker -db db.vol -coordinator 127.0.0.1:8080 &
//	volcano-worker -db db.vol -coordinator 127.0.0.1:8080 &
//
// Fragments arrive as POST /fragment (the full plan source plus the
// exchange-cut path and producer index — the worker recompiles and
// builds just that producer subtree), and their record streams leave
// over raw TCP toward the coordinator's data plane in the VWF1 wire
// format (internal/core/wire.go). GET /healthz answers the coordinator's heartbeats and
// GET /metrics serves the volcano_dist_worker_* families alongside the
// storage and operator families.
//
// Registration repeats every -register-every as a liveness refresher: a
// worker that restarts, or a coordinator that restarts, re-converges
// without operator action. SIGINT/SIGTERM stops cleanly: new fragments
// are refused, active streams are severed (the coordinator retries them
// on surviving workers), then the process exits.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

type options struct {
	db            string
	addr          string
	coordinator   string
	advertise     string
	frames        int
	registerEvery time.Duration

	// readyHook, when set, is called with the bound dispatch address once
	// the worker accepts fragments. Test seam.
	readyHook func(addr string)
	// stop, when non-nil, triggers the same clean stop as SIGTERM. Test
	// seam.
	stop <-chan struct{}
}

func main() {
	var o options
	flag.StringVar(&o.db, "db", "", "durable database file — the same database the coordinator serves (required)")
	flag.StringVar(&o.addr, "addr", "127.0.0.1:0", "HTTP dispatch listen address")
	flag.StringVar(&o.coordinator, "coordinator", "", "volcano-serve address to register with (empty = wait to be registered manually)")
	flag.StringVar(&o.advertise, "advertise", "", "dispatch address to register (empty = the bound listen address)")
	flag.IntVar(&o.frames, "frames", 4096, "buffer pool frames shared by all fragments")
	flag.DurationVar(&o.registerEvery, "register-every", 10*time.Second, "re-registration interval (liveness refresh)")
	flag.Parse()

	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "volcano-worker:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.db == "" {
		return fmt.Errorf("no database: use -db FILE (the file volcano-serve serves)")
	}
	if o.registerEvery <= 0 {
		o.registerEvery = 10 * time.Second
	}

	// Storage mirrors volcano-serve: the served volume on a disk device,
	// temp space for fragment-local sorts and spills on a memory device.
	reg := device.NewRegistry()
	baseID := reg.NextID()
	disk, err := device.OpenDisk(baseID, o.db)
	if err != nil {
		return err
	}
	if err := reg.Mount(disk); err != nil {
		return err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		return err
	}
	defer reg.CloseAll()

	pool := buffer.NewPool(reg, o.frames, buffer.TwoLevel)
	base, err := file.OpenVolume(pool, baseID)
	if err != nil {
		return err
	}
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	mr := metrics.NewRegistry()
	pool.RegisterMetrics(mr)
	device.RegisterMetrics(mr)
	btree.RegisterMetrics(mr)
	core.RegisterMetrics(mr)
	metrics.RegisterGoRuntime(mr)

	w, err := dist.NewWorker(dist.WorkerConfig{
		Env:            env,
		Catalog:        plan.VolumeCatalog{base},
		CatalogVersion: dist.CatalogVersion(o.db, base),
		Metrics:        mr,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: w.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	advertise := o.advertise
	if advertise == "" {
		advertise = ln.Addr().String()
	}
	fmt.Fprintf(os.Stderr, "volcano-worker: %s: %d tables; dispatch on http://%s\n",
		o.db, len(base.List()), ln.Addr())

	// Registration loop: announce once now, then refresh. Failures are
	// logged and retried — the coordinator may simply not be up yet.
	regStop := make(chan struct{})
	regDone := make(chan struct{})
	go func() {
		defer close(regDone)
		if o.coordinator == "" {
			return
		}
		tick := time.NewTicker(o.registerEvery)
		defer tick.Stop()
		failures := 0
		for {
			if err := register(o.coordinator, advertise); err != nil {
				if failures%10 == 0 { // don't spam a down coordinator
					fmt.Fprintf(os.Stderr, "volcano-worker: register with %s: %v\n", o.coordinator, err)
				}
				failures++
			} else {
				failures = 0
			}
			select {
			case <-regStop:
				return
			case <-tick.C:
			}
		}
	}()

	if o.readyHook != nil {
		o.readyHook(advertise)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigc)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "volcano-worker: %v: stopping\n", sig)
	case <-o.stop:
		fmt.Fprintln(os.Stderr, "volcano-worker: stop requested")
	case err := <-errc:
		return fmt.Errorf("serve: %w", err)
	}

	close(regStop)
	<-regDone
	// Refuse new fragments and sever active streams; the coordinator
	// retries them elsewhere. Then stop the HTTP machinery and (via the
	// deferred CloseAll) the volume.
	w.Stop()
	_ = httpSrv.Close()
	fmt.Fprintln(os.Stderr, "volcano-worker: stopped")
	return nil
}

// register announces the dispatch address to the coordinator.
func register(coordinator, addr string) error {
	body, _ := json.Marshal(dist.RegisterRequest{Addr: addr})
	resp, err := http.Post("http://"+coordinator+"/dist/register", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("coordinator answered %s", resp.Status)
	}
	return nil
}
