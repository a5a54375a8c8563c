package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"mobipriv"
	"mobipriv/internal/geo"
	"mobipriv/internal/metrics"
	"mobipriv/internal/risk"
	"mobipriv/internal/store"
)

// storeSpec is the per-trace mechanism store-anon-eval runs.
const storeSpec = "geoi(0.01)"

// storeInput is store-anon-eval's set-up: the input store and the
// attack's ground truth.
type storeInput struct {
	orig   string // path of the input .mstore
	truth  map[string][]geo.Point
	points int
}

func (b *bench) storeSetup() (storeInput, error) {
	g, err := b.commuterDay(b.shape.storeUsers)
	if err != nil {
		return storeInput{}, err
	}
	in := storeInput{
		orig:   filepath.Join(b.workdir, "orig.mstore"),
		truth:  risk.TruthPOIs(g.Stays, risk.DefaultAttackConfig().MatchRadius),
		points: g.Dataset.TotalPoints(),
	}
	return in, store.WriteDataset(in.orig, g.Dataset, store.Options{Overwrite: true, FS: noSyncFS{}})
}

// noSyncFS is the OS filesystem with every fsync skipped. Set-up writes
// the input store through it: no workload relies on that store being
// durable, and on a shared disk the flushes alone moved set-up time by
// a factor of two between runs. The timed jobs write with the default,
// durable filesystem.
type noSyncFS struct{}

type noSyncFile struct{ *os.File }

func (noSyncFile) Sync() error { return nil }

func (noSyncFS) Create(name string) (store.File, error) {
	f, err := os.Create(name)
	if err != nil {
		return nil, err
	}
	return noSyncFile{f}, nil
}
func (noSyncFS) Rename(oldname, newname string) error   { return os.Rename(oldname, newname) }
func (noSyncFS) Remove(name string) error               { return os.Remove(name) }
func (noSyncFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }
func (noSyncFS) SyncDir(string) error                   { return nil }

func (in storeInput) evalOptions(workers int) metrics.EvalOptions {
	return metrics.EvalOptions{
		Attack: &metrics.AttackOptions{Truth: in.truth, Config: risk.DefaultAttackConfig()},
		Scan:   store.ScanOptions{Workers: workers},
	}
}

// storeJob is one end-to-end job at nproc workers: RunStore(geoi) from
// the input store into a new store, then EvalStore with the attack
// over (orig, anon).
func (b *bench) storeJob(in storeInput, anonPath string) (*metrics.Report, *mobipriv.StoreRunStats, error) {
	ctx := context.Background()
	m, err := mobipriv.FromSpec(storeSpec)
	if err != nil {
		return nil, nil, err
	}
	orig, err := store.Open(in.orig)
	if err != nil {
		return nil, nil, err
	}
	defer orig.Close()
	w, err := store.Create(anonPath, store.Options{Overwrite: true})
	if err != nil {
		return nil, nil, err
	}
	st, err := mobipriv.NewRunner(mobipriv.WithWorkers(b.nproc)).RunStore(ctx, orig, w, m)
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, nil, err
	}
	anon, err := store.Open(anonPath)
	if err != nil {
		return nil, nil, err
	}
	defer anon.Close()
	rep, _, err := metrics.EvalStore(ctx, orig, anon, in.evalOptions(b.nproc))
	return rep, st, err
}

// checkStoreJob compares one job's outputs with the in-memory path:
// the RunStore output Load()s equal to Runner.Run(geoi), and the
// EvalStore report is bit-identical to EvalDataset over the loaded
// stores. It returns the reference report for the timed jobs.
func (b *bench) checkStoreJob(res *result, in storeInput) (*metrics.Report, error) {
	ctx := context.Background()
	anonPath := filepath.Join(b.workdir, "check-anon.mstore")
	defer os.RemoveAll(anonPath)
	rep, _, err := b.storeJob(in, anonPath)
	if err != nil {
		return nil, err
	}
	origD, err := loadStore(in.orig)
	if err != nil {
		return nil, err
	}
	m, err := mobipriv.FromSpec(storeSpec)
	if err != nil {
		return nil, err
	}
	batch, err := mobipriv.NewRunner(mobipriv.WithWorkers(b.nproc)).Run(ctx, m, origD)
	if err != nil {
		return nil, err
	}
	refPath := filepath.Join(b.workdir, "check-ref.mstore")
	defer os.RemoveAll(refPath)
	if err := store.WriteDataset(refPath, batch.Dataset, store.Options{Overwrite: true}); err != nil {
		return nil, err
	}
	want, err := loadStore(refPath)
	if err != nil {
		return nil, err
	}
	anonD, err := loadStore(anonPath)
	if err != nil {
		return nil, err
	}
	res.check(b.log, "RunStore output == Runner.Run("+storeSpec+")", sameDataset(anonD, want))
	evalRep, err := metrics.EvalDataset(origD, anonD, in.evalOptions(0))
	if err != nil {
		return nil, err
	}
	res.check(b.log, "EvalStore report == EvalDataset report", sameReport(rep, evalRep))
	return evalRep, nil
}

func sameReport(got, want *metrics.Report) error {
	if got == nil || want == nil {
		return errors.New("missing report")
	}
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("reports differ:\n got %+v\nwant %+v", *got, *want)
	}
	return nil
}

// storeAnonEval is the store-anon-eval workload: repeated jobs for the
// run's seconds, each report checked against the in-memory reference.
func (b *bench) storeAnonEval() (*result, error) {
	in, setupS, err := timeSetup(b.storeSetup, func(storeInput) {})
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true}
	res.set("setup_s", setupS, "s")
	want, err := b.checkStoreJob(res, in)
	if err != nil {
		return nil, err
	}
	anonPath := filepath.Join(b.workdir, "anon.mstore")
	err = b.jobLoop(res, "job report == reference report", in.points, func() error {
		rep, st, err := b.storeJob(in, anonPath)
		if err != nil {
			return err
		}
		if st.Points != int64(in.points) {
			return fmt.Errorf("RunStore read %d points, want %d", st.Points, in.points)
		}
		return sameReport(rep, want)
	})
	if err != nil {
		return nil, err
	}
	setOKRatio(res)
	return res, nil
}
