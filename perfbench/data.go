package main

import (
	"fmt"
	"math/rand"

	"repro/internal/record"
	"repro/internal/storage/btree"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

// Dataset shape. emp is the fact table every workload reads; dept is the
// small dimension the joins build on.
const (
	empRows    = 50_000
	deptRows   = 64
	partitions = 4
	dbPages    = 4096 // capacity of the database file: emp, its partitions, the index and dept fit with room to spare
)

var (
	empSchema = record.MustSchema(
		record.Field{Name: "id", Type: record.TInt},
		record.Field{Name: "dept", Type: record.TInt},
		record.Field{Name: "salary", Type: record.TFloat},
		record.Field{Name: "name", Type: record.TString},
	)
	deptSchema = record.MustSchema(
		record.Field{Name: "dno", Type: record.TInt},
		record.Field{Name: "dname", Type: record.TString},
	)
)

// dataSpec sizes one generated database; tests use a tiny one.
type dataSpec struct {
	EmpRows, DeptRows int
}

var fullData = dataSpec{EmpRows: empRows, DeptRows: deptRows}

// salary draws a salary in [1000, 5000) with two fractional bits, so
// every sum of at most 2^30 salaries is exact in float64 and aggregates
// read the same whatever order an exchange delivers their inputs in.
func salary(rng *rand.Rand) float64 {
	return 1000 + float64(rng.Intn(4000*4))/4
}

// generate writes the benchmark database to path through the storage
// API: emp (with the B+-tree index emp_id and the round-robin partitions
// emp.0..emp.3) and dept, every table analyzed, the volume table of
// contents saved. The same seed writes the same rows.
func generate(path string, seed int64, spec dataSpec) error {
	rng := rand.New(rand.NewSource(seed))
	reg := device.NewRegistry()
	id := reg.NextID()
	disk, err := device.NewDisk(id, path, dbPages)
	if err != nil {
		return err
	}
	if err := reg.Mount(disk); err != nil {
		return err
	}
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 1024, buffer.TwoLevel)
	vol, err := file.Format(pool, id)
	if err != nil {
		return err
	}

	emp, err := vol.Create("emp", empSchema)
	if err != nil {
		return err
	}
	parts := make([]*file.File, partitions)
	for p := range parts {
		if parts[p], err = vol.Create(fmt.Sprintf("emp.%d", p), empSchema); err != nil {
			return err
		}
	}
	tree, err := btree.Create(pool, id)
	if err != nil {
		return err
	}
	var buf []byte
	for i := 0; i < spec.EmpRows; i++ {
		vals := []record.Value{
			record.Int(int64(i)),
			record.Int(int64(rng.Intn(spec.DeptRows))),
			record.Float(salary(rng)),
			record.Str(fmt.Sprintf("emp-%d", i)),
		}
		if buf, err = empSchema.AppendEncode(buf[:0], vals); err != nil {
			return err
		}
		rid, err := emp.Insert(buf)
		if err != nil {
			return err
		}
		if err := tree.Insert(btree.EncodeKey(vals[0]), rid); err != nil {
			return err
		}
		if _, err := parts[i%partitions].Insert(buf); err != nil {
			return err
		}
	}
	vol.SaveIndex("emp_id", tree)

	dept, err := vol.Create("dept", deptSchema)
	if err != nil {
		return err
	}
	for d := 0; d < spec.DeptRows; d++ {
		if _, err := dept.Insert(deptSchema.MustEncode(record.Int(int64(d)), record.Str(fmt.Sprintf("dept-%02d", d)))); err != nil {
			return err
		}
	}

	for _, name := range vol.List() {
		if _, err := vol.Analyze(name); err != nil {
			return fmt.Errorf("analyze %s: %w", name, err)
		}
	}
	return vol.Save()
}

// store is an in-process handle on a generated database: the reference
// runs and the layer rungs read the same file the servers serve.
type store struct {
	reg  *device.Registry
	pool *buffer.Pool
	vol  *file.Volume
	temp *file.Volume
}

func openStore(path string, frames int) (*store, error) {
	reg := device.NewRegistry()
	id := reg.NextID()
	disk, err := device.OpenDisk(id, path)
	if err != nil {
		return nil, err
	}
	if err := reg.Mount(disk); err != nil {
		reg.CloseAll()
		return nil, err
	}
	tempID := reg.NextID()
	if err := reg.Mount(device.NewMem(tempID)); err != nil {
		reg.CloseAll()
		return nil, err
	}
	pool := buffer.NewPool(reg, frames, buffer.TwoLevel)
	vol, err := file.OpenVolume(pool, id)
	if err != nil {
		reg.CloseAll()
		return nil, err
	}
	return &store{reg: reg, pool: pool, vol: vol, temp: file.NewVolume(pool, tempID)}, nil
}

func (s *store) Close() { s.reg.CloseAll() }
