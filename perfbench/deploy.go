package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"gupt/internal/compman"
	"gupt/internal/dataset"
	"gupt/internal/ledger"
	"gupt/internal/telemetry"
	"gupt/internal/tenant"
)

// Deployment settings: guptd's defaults, with the quantum off so runs
// show the CPU ceiling rather than the §6.2 padding.
const (
	ledgerFlush  = 2 * time.Millisecond
	cacheEntries = 1024
	cacheTTL     = 10 * time.Minute
)

// warmupEpsilon is the warm-up query's ε; no stream ever asks for it, so
// the warm-up never pre-fills the cache for a timed query.
const warmupEpsilon = 2

// deployment is one hosted GUPT instance as guptd would boot it: CSV
// loaded, dataset registered, durable ledger attached, tenants defined,
// workers and server listening on loopback.
type deployment struct {
	wl      *workloadSpec
	dir     string
	reg     *dataset.Registry
	tbl     *dataset.Table
	tel     *telemetry.Registry
	led     *ledger.Ledger
	tenants *tenant.Registry
	keys    []string
	workers []*compman.Worker
	// workerAddrs are the workers' loopback addresses.
	workerAddrs []string
	srv         *compman.Server
	addr        string
	serving     []chan struct{} // closed when each Serve loop has returned

	loadCSV, register, total time.Duration
	warmCharged              float64
}

// tenantKeys derives the tenants' API keys from the seed: inputs are a
// function of the seed, and the keys have the production length.
func tenantKeys(seed int64, n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("gupt_%016x%016x%016x", uint64(seed), uint64(i+1), uint64(seed)*0x9E3779B97F4A7C15+uint64(i))
	}
	return keys
}

// newTenants builds a registry of the workload's tenants: each granted the
// dataset with a quota and rate limits far above what a run uses.
func newTenants(wl *workloadSpec, keys []string) (*tenant.Registry, error) {
	reg := tenant.NewRegistry()
	for i, key := range keys {
		err := reg.Add(tenant.Tenant{
			ID:        fmt.Sprintf("t%d", i),
			KeyHash:   tenant.HashKey(key),
			Grants:    []string{wl.dataset},
			Quotas:    map[string]float64{wl.dataset: datasetBudget},
			RateQPS:   1e6,
			RateBurst: 1e6,
		})
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// deploy boots one instance from the CSV at csvPath, under a fresh
// directory of tmpRoot, and answers one warm-up query. Every step from the
// CSV load through the warm-up answer counts as set-up time.
func deploy(wl *workloadSpec, csvPath, tmpRoot string, keys []string, tr *tracer) (*deployment, error) {
	dir, err := os.MkdirTemp(tmpRoot, "deploy-")
	if err != nil {
		return nil, err
	}
	d := &deployment{wl: wl, dir: dir, keys: keys}
	start := time.Now()
	if err := d.boot(csvPath, tr); err != nil {
		d.close()
		return nil, err
	}
	d.total = time.Since(start)
	return d, nil
}

func (d *deployment) boot(csvPath string, tr *tracer) error {
	wl := d.wl
	t := time.Now()
	tbl, err := dataset.LoadCSVFile(csvPath, true)
	if err != nil {
		return err
	}
	d.loadCSV = time.Since(t)
	d.tbl = tbl

	t = time.Now()
	d.reg = dataset.NewRegistry()
	if _, err := d.reg.Register(wl.dataset, tbl, dataset.RegisterOptions{TotalBudget: datasetBudget}); err != nil {
		return err
	}
	d.register = time.Since(t)

	d.tel = telemetry.NewRegistry()
	d.led, err = ledger.Open(filepath.Join(d.dir, "ledger"), ledger.Options{
		Sync:          ledger.SyncBatched,
		FlushInterval: ledgerFlush,
		Telemetry:     d.tel,
	})
	if err != nil {
		return err
	}
	if err := ledger.Attach(d.led, d.reg); err != nil {
		return err
	}
	if d.tenants, err = newTenants(wl, d.keys); err != nil {
		return err
	}

	for i := 0; i < wl.workers; i++ {
		w := compman.NewWorker(compman.WorkerConfig{ChamberWrapper: tr.wrapper(spanWorkerExecute)})
		addr, err := d.serve(w.Serve)
		if err != nil {
			return err
		}
		d.workers = append(d.workers, w)
		d.workerAddrs = append(d.workerAddrs, addr)
	}
	serverSpan := spanSandboxExecute
	if wl.workers > 0 {
		serverSpan = spanBlockRoundtrip
	}
	d.srv = compman.NewServer(d.reg, compman.ServerConfig{
		Telemetry:      d.tel,
		CacheEntries:   cacheEntries,
		CacheTTL:       cacheTTL,
		Tenants:        d.tenants,
		WorkerAddrs:    d.workerAddrs,
		WorkerConns:    1,
		Sched:          compman.SchedConfig{MaxConcurrent: wl.maxConcurrent},
		ChamberWrapper: tr.wrapper(serverSpan),
	})
	if d.addr, err = d.serve(d.srv.Serve); err != nil {
		return err
	}

	c, err := d.dial()
	if err != nil {
		return err
	}
	defer c.Close()
	warm := wl.newStream(0).query(0)
	warm.req.Epsilon = warmupEpsilon
	warm.req.APIKey = d.keys[0]
	resp, err := c.Query(&warm.req)
	if err != nil {
		return fmt.Errorf("warm-up query: %w", err)
	}
	d.warmCharged = resp.EpsilonCharged
	return nil
}

// serve starts serve on a fresh loopback listener and returns its address.
func (d *deployment) serve(serve func(net.Listener) error) (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	done := make(chan struct{})
	d.serving = append(d.serving, done)
	go func() {
		defer close(done)
		_ = serve(l) // returns once Close has stopped the listener
	}()
	return l.Addr().String(), nil
}

func (d *deployment) dial() (*compman.Client, error) {
	return compman.Dial(d.addr)
}

// remaining reads the dataset's global remaining budget over the wire.
func (d *deployment) remaining() (float64, error) {
	c, err := d.dial()
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.SetAPIKey(d.keys[0])
	return c.RemainingBudget(d.wl.dataset)
}

// shutdown stops the server and workers and closes the ledger, flushing
// its group-commit tail, as guptd does on SIGTERM.
func (d *deployment) shutdown() error {
	if d.srv != nil {
		d.srv.Close()
		d.srv = nil
	}
	for _, w := range d.workers {
		w.Close()
	}
	d.workers = nil
	for _, done := range d.serving {
		<-done
	}
	d.serving = nil
	var err error
	if d.led != nil {
		err = d.led.Close()
		d.led = nil
	}
	return err
}

// close shuts down and removes the deployment's directory.
func (d *deployment) close() error {
	err := d.shutdown()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// ledgerDir is the durable ledger's directory, for recovery checks.
func (d *deployment) ledgerDir() string { return filepath.Join(d.dir, "ledger") }

// counter reads one of the server's telemetry counters.
func (d *deployment) counter(name string) int64 { return d.tel.Counter(name).Value() }
