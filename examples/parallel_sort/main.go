// Parallel external sort as described in §4.4: data randomly partitioned
// over several "disks" is sorted into a range-partitioned result with
// sorted partitions. Two exchange variants appear:
//
//  1. a repartitioning exchange (range partitioning support function,
//     inline no-fork mode: one goroutine per disk does both the scan/
//     partition work and the sorting, the variant the paper added when
//     two processes per CPU proved too expensive), and
//  2. a merge network: the final consumer merges the per-producer sorted
//     streams, which the exchange keeps separate for exactly this purpose.
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

const (
	totalRecords = 120000
	disks        = 4
)

var schema = record.MustSchema(
	record.Field{Name: "key", Type: record.TInt},
	record.Field{Name: "payload", Type: record.TInt},
)

func main() {
	reg := device.NewRegistry()
	baseID := reg.NextID()
	must(reg.Mount(device.NewMem(baseID)))
	tempID := reg.NextID()
	must(reg.Mount(device.NewMem(tempID)))
	defer reg.CloseAll()
	pool := buffer.NewPool(reg, 16384, buffer.TwoLevel)
	base := file.NewVolume(pool, baseID)
	env := core.NewEnv(pool, file.NewVolume(pool, tempID))

	// Data randomly partitioned over the disks (round robin on a
	// pseudo-random key).
	inputs := make([]*file.File, disks)
	for d := range inputs {
		f, err := base.Create(fmt.Sprintf("in.%d", d), schema)
		must(err)
		inputs[d] = f
	}
	for i := 0; i < totalRecords; i++ {
		key := int64(i*2654435761) % int64(totalRecords)
		if key < 0 {
			key += totalRecords
		}
		_, err := inputs[i%disks].Insert(schema.MustEncode(record.Int(key), record.Int(int64(i))))
		must(err)
	}

	// Range cuts for the output partitions.
	cuts := make([]record.Value, disks-1)
	for i := range cuts {
		cuts[i] = record.Int(int64((i + 1) * totalRecords / disks))
	}

	// One inline exchange repartitions by key range; each group member
	// then sorts its partition — one process per disk, §4.4.
	x, err := core.NewExchange(core.ExchangeConfig{
		Schema:    schema,
		Producers: disks,
		Consumers: disks,
		Inline:    true, // no extra processes; flow control obsolete
		NewProducer: func(g int) (core.Iterator, error) {
			return core.NewFileScan(inputs[g], nil)
		},
		NewPartition: func(int) expr.Partitioner {
			return expr.RangePartition(schema, 0, cuts)
		},
	})
	must(err)

	// Each member sorts its range partition into an output file: the
	// result is a sorted file distributed over the disks.
	outs := make([]*file.File, disks)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, disks)
	for g := 0; g < disks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sorted := core.NewSort(env, x.Consumer(g), []record.SortSpec{{Field: 0}})
			out, err := base.Create(fmt.Sprintf("out.%d", g), schema)
			if err != nil {
				errs[g] = err
				return
			}
			outs[g] = out
			if err := sorted.Open(); err != nil {
				errs[g] = err
				return
			}
			for {
				r, ok, err := sorted.Next()
				if err != nil {
					errs[g] = err
					return
				}
				if !ok {
					break
				}
				_, err = out.Insert(r.Data)
				r.Unfix()
				if err != nil {
					errs[g] = err
					return
				}
			}
			errs[g] = sorted.Close()
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		must(err)
	}
	fmt.Printf("range-partitioned parallel sort of %d records across %d disks: %v\n",
		totalRecords, disks, time.Since(start).Round(time.Millisecond))

	// Verify: each partition sorted, partitions aligned with the cuts,
	// and the whole thing complete — by reading it back through a merge
	// network (KeepStreams exchange + merge iterator).
	verify, err := core.NewExchange(core.ExchangeConfig{
		Schema:      schema,
		Producers:   disks,
		Consumers:   1,
		KeepStreams: true,
		NewProducer: func(g int) (core.Iterator, error) {
			// Partitions are sorted files; no sort operator needed here.
			return core.NewFileScan(outs[g], nil)
		},
	})
	must(err)
	streams, err := verify.ConsumerStreams(0)
	must(err)

	// The partitions are range partitioned AND sorted, so a merge over
	// them (the merge network of §4.4) yields the total order.
	m, err := core.NewMergeSpec(streams, []record.SortSpec{{Field: 0}})
	must(err)
	must(m.Open())
	count := 0
	last := int64(-1)
	for {
		r, ok, err := m.Next()
		must(err)
		if !ok {
			break
		}
		k := schema.GetInt(r.Data, 0)
		if k < last {
			log.Fatalf("order violated at record %d: %d after %d", count, k, last)
		}
		last = k
		count++
		r.Unfix()
	}
	must(m.Close())
	if count != totalRecords {
		log.Fatalf("lost records: %d of %d", count, totalRecords)
	}
	fmt.Printf("verified: %d records, globally sorted via merge network\n", count)
	for g, out := range outs {
		fmt.Printf("  disk %d: %d records, %d pages\n", g, out.Records(), out.Pages())
	}
	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		log.Fatalf("buffer pin leak: %d", n)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
