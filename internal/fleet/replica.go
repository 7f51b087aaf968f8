package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"

	"planarflow/internal/flowd"
	"planarflow/internal/obs"
	"planarflow/internal/store"
)

// ReplicaConfig configures one in-process replica.
type ReplicaConfig struct {
	Name string
	// Store is the replica's store config. When SpillDir is set it is
	// treated as a fleet-level root: the replica spills under
	// SpillDir/<name> so co-hosted replicas never share snapshot files.
	Store store.Config
	// Wire attaches a TCP wire listener alongside HTTP.
	Wire bool
	// Logger for the replica's daemon (nil = flowd's quiet default).
	Logger *slog.Logger
}

// Replica is one in-process flowd replica: a store, a daemon, its own
// metric registry, and live HTTP (plus optionally wire) listeners on
// loopback. It is the unit cmd/flowdfleet, bench/'s fleet-hop ladder and
// this package's failover tests boot N of. Each replica owning its
// registry is what makes fleet-wide telemetry a pure merge
// (obs.WriteMergedPrometheus) of the replicas' registries plus the
// process-wide one the layers below the daemon record into.
type Replica struct {
	Name  string
	Store *store.Store
	Srv   *flowd.Server
	Reg   *obs.Registry

	hs     *http.Server
	httpLn net.Listener
	wireLn net.Listener
	member Member
}

// StartReplica boots one replica on ephemeral loopback ports.
func StartReplica(cfg ReplicaConfig) (*Replica, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("fleet: replica needs a name")
	}
	sc := cfg.Store
	if sc.SpillDir != "" {
		sc.SpillDir = filepath.Join(sc.SpillDir, cfg.Name)
	}
	st := store.New(sc)
	reg := obs.NewRegistry()
	srv := flowd.NewServerWith(st, flowd.ServerOptions{Logger: cfg.Logger, Registry: reg})

	httpLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: replica %s: %w", cfg.Name, err)
	}
	r := &Replica{
		Name:   cfg.Name,
		Store:  st,
		Srv:    srv,
		Reg:    reg,
		hs:     &http.Server{Handler: srv},
		httpLn: httpLn,
		member: Member{Name: cfg.Name, HTTP: "http://" + httpLn.Addr().String()},
	}
	if cfg.Wire {
		wireLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			httpLn.Close()
			return nil, fmt.Errorf("fleet: replica %s wire: %w", cfg.Name, err)
		}
		r.wireLn = wireLn
		r.member.WireNet, r.member.WireAddr = "tcp", wireLn.Addr().String()
		go srv.Wire().Serve(wireLn)
	}
	go r.hs.Serve(httpLn)
	return r, nil
}

// Member is how the fleet client addresses this replica.
func (r *Replica) Member() Member { return r.member }

// Stop hard-kills the replica: listeners and connections drop
// immediately, in-flight requests fail. This is the failover tests'
// replica-death event.
func (r *Replica) Stop() {
	r.hs.Close()
	if r.wireLn != nil {
		r.Srv.Wire().Close()
	}
}

// Drain shuts the replica down gracefully within ctx's budget: stop
// accepting, finish in-flight requests on both planes, then flush every
// resident bundle to the disk tier (when one is configured) so a
// restart restores instead of rebuilding.
func (r *Replica) Drain(ctx context.Context) error {
	var errs []error
	if err := r.hs.Shutdown(ctx); err != nil {
		errs = append(errs, fmt.Errorf("http shutdown: %w", err))
	}
	if r.wireLn != nil {
		if err := r.Srv.Wire().Shutdown(ctx); err != nil {
			errs = append(errs, fmt.Errorf("wire shutdown: %w", err))
		}
	}
	if r.Store.SpillEnabled() {
		if _, err := r.Store.SnapshotResident(); err != nil {
			errs = append(errs, fmt.Errorf("snapshot resident: %w", err))
		}
		r.Store.FlushSpills()
	}
	return errors.Join(errs...)
}
