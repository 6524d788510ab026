package file

import (
	"fmt"

	"repro/internal/record"
)

// Scan iterates over all live records of a file in storage order. It pins
// one page at a time; each record returned carries its own pin, which the
// caller must release (the ownership protocol of §3).
type Scan struct {
	f     *File
	cur   record.PageID
	slot  int
	frame *pinnedPage
	done  bool
}

// pinnedPage wraps the scan's own pin on the current page.
type pinnedPage struct {
	pg  page
	rec Record // the scan's own pin, reused to unfix
}

// NewScan opens a scan over the file. The argument is ignored: it once
// asked a read-ahead daemon to prefetch each next page, and is kept so
// existing callers compile.
func (f *File) NewScan(bool) *Scan {
	return &Scan{f: f, cur: f.FirstPage()}
}

// Next returns the next record, pinned for the caller. It returns ok=false
// at end of file.
func (s *Scan) Next() (Record, bool, error) {
	for {
		if s.done {
			return Record{}, false, nil
		}
		if s.frame == nil {
			if s.cur.Page == 0 {
				s.done = true
				return Record{}, false, nil
			}
			fr, err := s.f.vol.pool.FixFor(s.cur, s.f.meter)
			if err != nil {
				s.done = true
				return Record{}, false, fmt.Errorf("file: scan %q: %w", s.f.Name(), err)
			}
			pg := page{fr.Data()}
			s.frame = &pinnedPage{
				pg:  pg,
				rec: Record{RID: record.RID{PageID: s.cur}, frame: fr, pool: s.f.vol.pool},
			}
			s.slot = 0
		}
		pg := s.frame.pg
		for s.slot < pg.nslots() {
			slot := s.slot
			s.slot++
			data, err := pg.record(slot)
			if err != nil {
				continue // deleted slot
			}
			// Transfer one extra pin to the caller.
			out := Record{
				RID:   record.RID{PageID: s.cur, Slot: uint16(slot)},
				Data:  data,
				frame: s.frame.rec.frame,
				pool:  s.f.vol.pool,
			}
			out.Share(1)
			return out, true, nil
		}
		// Page exhausted: release our pin, move on.
		next := pg.next()
		s.frame.rec.Unfix()
		s.frame = nil
		if next == 0 {
			s.done = true
			return Record{}, false, nil
		}
		s.cur = pid(s.cur.Dev, next)
	}
}

// Close releases the scan's resources. Safe to call at any point.
func (s *Scan) Close() {
	if s.frame != nil {
		s.frame.rec.Unfix()
		s.frame = nil
	}
	s.done = true
}

// Rewind resets the scan to the beginning of the file.
func (s *Scan) Rewind() {
	s.Close()
	s.cur = s.f.FirstPage()
	s.slot = 0
	s.done = false
}
