// Relational division ("which students have taken ALL required
// courses?") with Volcano's hash-division algorithm, parallelised two
// ways as in §4.4: divisor partitioning and quotient partitioning. The
// quotient-partitioned variant uses the exchange operator's broadcast
// switch ("it is not necessary to copy the records ...; it is sufficient
// to pin them such that each consumer can unpin them as if it were the
// only process using them").
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/expr"
	"repro/internal/record"
	"repro/internal/storage/buffer"
	"repro/internal/storage/device"
	"repro/internal/storage/file"
)

const (
	students = 6000
	courses  = 24
	workers  = 4
)

var (
	enrolledSchema = record.MustSchema(
		record.Field{Name: "student", Type: record.TInt},
		record.Field{Name: "course", Type: record.TInt},
	)
	coursesSchema = record.MustSchema(
		record.Field{Name: "course", Type: record.TInt},
	)
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

	// Enrollment: every third student completes all courses.
	enrolled, err := base.Create("enrolled", enrolledSchema)
	must(err)
	expected := 0
	for s := 0; s < students; s++ {
		limit := courses
		if s%3 != 0 {
			limit = courses - 1
		} else {
			expected++
		}
		for c := 0; c < limit; c++ {
			_, err := enrolled.Insert(enrolledSchema.MustEncode(record.Int(int64(s)), record.Int(int64(c))))
			must(err)
		}
	}
	required, err := base.Create("required", coursesSchema)
	must(err)
	for c := 0; c < courses; c++ {
		_, err := required.Insert(coursesSchema.MustEncode(record.Int(int64(c))))
		must(err)
	}

	run := func(name string, mk func() (core.Iterator, error)) {
		it, err := mk()
		must(err)
		start := time.Now()
		n, err := core.Drain(it)
		must(err)
		status := "OK"
		if n != expected {
			status = fmt.Sprintf("WRONG, want %d", expected)
		}
		fmt.Printf("%-48s %6d quotients in %8v  [%s]\n",
			name, n, time.Since(start).Round(time.Microsecond), status)
	}

	// Serial hash division.
	run("serial hash division", func() (core.Iterator, error) {
		dv, err := core.NewFileScan(enrolled, nil)
		if err != nil {
			return nil, err
		}
		ds, err := core.NewFileScan(required, nil)
		if err != nil {
			return nil, err
		}
		return core.NewHashDivision(env, dv, ds, record.Key{0}, record.Key{1}, record.Key{0})
	})

	// Quotient partitioning: hash the dividend on student, broadcast the
	// divisor; every worker computes final quotients for its students.
	run("quotient partitioning (broadcast divisor)", func() (core.Iterator, error) {
		xDiv, err := core.NewExchange(core.ExchangeConfig{
			Schema: enrolledSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(enrolled, nil) },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(enrolledSchema, record.Key{0}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		xReq, err := core.NewExchange(core.ExchangeConfig{
			Schema: coursesSchema, Producers: 1, Consumers: workers, Broadcast: true,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(required, nil) },
		})
		if err != nil {
			return nil, err
		}
		quotSchema := record.MustSchema(record.Field{Name: "student", Type: record.TInt})
		gather, err := core.NewExchange(core.ExchangeConfig{
			Schema: quotSchema, Producers: workers, Consumers: 1,
			NewProducer: func(g int) (core.Iterator, error) {
				return core.NewHashDivision(env, xDiv.Consumer(g), xReq.Consumer(g),
					record.Key{0}, record.Key{1}, record.Key{0})
			},
		})
		if err != nil {
			return nil, err
		}
		return gather.Consumer(0), nil
	})

	// Divisor partitioning: hash both inputs on course; workers emit
	// partial match counts; a global sum keeps full matches.
	run("divisor partitioning (partial counts + agg)", func() (core.Iterator, error) {
		xDiv, err := core.NewExchange(core.ExchangeConfig{
			Schema: enrolledSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(enrolled, nil) },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(enrolledSchema, record.Key{1}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		xReq, err := core.NewExchange(core.ExchangeConfig{
			Schema: coursesSchema, Producers: 1, Consumers: workers,
			NewProducer: func(int) (core.Iterator, error) { return core.NewFileScan(required, nil) },
			NewPartition: func(int) expr.Partitioner {
				return expr.HashPartition(coursesSchema, record.Key{0}, workers)
			},
		})
		if err != nil {
			return nil, err
		}
		partialSchema := record.MustSchema(
			record.Field{Name: "student", Type: record.TInt},
			record.Field{Name: "matched", Type: record.TInt},
		)
		gather, err := core.NewExchange(core.ExchangeConfig{
			Schema: partialSchema, Producers: workers, Consumers: 1,
			NewProducer: func(g int) (core.Iterator, error) {
				d, err := core.NewHashDivision(env, xDiv.Consumer(g), xReq.Consumer(g),
					record.Key{0}, record.Key{1}, record.Key{0})
				if err != nil {
					return nil, err
				}
				if err := d.SetPartial(true); err != nil {
					return nil, err
				}
				return d, nil
			},
		})
		if err != nil {
			return nil, err
		}
		agg, err := core.NewHashAggregate(env, gather.Consumer(0),
			record.Key{0}, []core.AggSpec{{Func: core.AggSum, Field: 1, Name: "matched"}})
		if err != nil {
			return nil, err
		}
		return core.NewFilterExpr(agg, fmt.Sprintf("matched = %d", courses), expr.Compiled)
	})

	if n := pool.Stats().CurrentlyFixedHint; n != 0 {
		log.Fatalf("buffer pin leak: %d", n)
	}
	fmt.Println("all pins balanced")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
