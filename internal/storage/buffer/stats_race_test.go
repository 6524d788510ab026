package buffer

import (
	"strings"
	"sync"
	"testing"

	"repro/internal/metrics"
	"repro/internal/record"
	"repro/internal/storage/device"
)

// TestStatsConcurrentWithDaemons is the live-scraper scenario: queries
// fix and unfix pages, evicting dirty pages through device I/O, and a
// scraper reads Stats and the metrics endpoint the whole time. Run under
// -race this proves the counters are safe to read without the pool lock.
func TestStatsConcurrentWithDaemons(t *testing.T) {
	reg := device.NewRegistry()
	dev := reg.NextID()
	if err := reg.Mount(device.NewMem(dev)); err != nil {
		t.Fatal(err)
	}
	p := NewPool(reg, 8, TwoLevel)

	mr := metrics.NewRegistry()
	p.RegisterMetrics(mr)

	// Pre-allocate pages so workers can fix existing ones.
	var pids []record.PageID
	for i := 0; i < 16; i++ {
		f, pid, err := p.FixNew(dev)
		if err != nil {
			t.Fatal(err)
		}
		p.Unfix(f, true)
		pids = append(pids, pid)
	}

	var writers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: fix/unfix churn over twice as many pages as frames.
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				pid := pids[(w*300+i)%len(pids)]
				f, err := p.Fix(pid)
				if err != nil {
					continue
				}
				p.Unfix(f, i%3 == 0)
			}
		}(w)
	}
	// Scraper: Stats(), FrameGauges() and the full exposition, lock-free
	// with respect to the counter writes.
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := p.Stats()
			if s.Fixes < 0 || s.Hits+s.Misses > s.Fixes+1000 {
				t.Errorf("implausible stats snapshot: %+v", s)
				return
			}
			p.FrameGauges()
			var sb strings.Builder
			if err := mr.WriteText(&sb); err != nil {
				t.Errorf("WriteText: %v", err)
				return
			}
			if _, err := metrics.ParseText(strings.NewReader(sb.String())); err != nil {
				t.Errorf("mid-run scrape unparseable: %v", err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	<-scraperDone

	s := p.Stats()
	if s.Fixes == 0 || s.Unfixes == 0 {
		t.Fatalf("no activity recorded: %+v", s)
	}
}
