package meter

import (
	"encoding/json"
	"testing"
)

func TestMeterCounts(t *testing.T) {
	m := &Meter{}
	m.FixHit()
	m.FixHit()
	m.FixMiss()
	m.DeviceRead(4096)
	m.DeviceWrite(4096)
	m.DeviceWrite(4096)
	m.ExchangePush(5)
	m.ExchangePush(0) // EOS marker: a packet with no records
	m.WireRecv(120)
	m.StreamRow(33)
	m.SetCPUNanos(2_500_000_000)

	s := m.Snapshot()
	if s.BufferFixes != 3 || s.BufferHits != 2 || s.BufferMisses != 1 {
		t.Errorf("buffer counters = %d/%d/%d, want 3/2/1", s.BufferFixes, s.BufferHits, s.BufferMisses)
	}
	if s.DeviceReads != 1 || s.DeviceWrites != 2 {
		t.Errorf("device ops = r%d/w%d, want r1/w2", s.DeviceReads, s.DeviceWrites)
	}
	if got := s.IOBytes(); got != 3*4096 {
		t.Errorf("IOBytes = %d, want %d", got, 3*4096)
	}
	if s.ExchangePackets != 2 || s.ExchangeRecords != 5 {
		t.Errorf("exchange = %d packets %d records, want 2/5", s.ExchangePackets, s.ExchangeRecords)
	}
	if s.WirePackets != 1 || s.WireBytes != 120 {
		t.Errorf("wire = %d packets %d bytes, want 1/120", s.WirePackets, s.WireBytes)
	}
	if s.RowsStreamed != 1 || s.BytesStreamed != 33 {
		t.Errorf("streamed = %d rows %d bytes, want 1/33", s.RowsStreamed, s.BytesStreamed)
	}
	if s.CPUSeconds != 2.5 {
		t.Errorf("CPUSeconds = %v, want 2.5", s.CPUSeconds)
	}
}

// TestNilMeter pins the disabled convention: every method on a nil
// meter is a no-op and its snapshot is the zero value, so attribution
// call sites never branch on enablement themselves.
func TestNilMeter(t *testing.T) {
	var m *Meter
	m.FixHit()
	m.FixMiss()
	m.DeviceRead(1)
	m.DeviceWrite(1)
	m.ExchangePush(1)
	m.WireRecv(1)
	m.StreamRow(1)
	m.SetCPUNanos(1)
	if s := m.Snapshot(); s != (Snapshot{}) {
		t.Errorf("nil meter snapshot = %+v, want zero", s)
	}
}

// TestMeterHotPathZeroAlloc is the per-event budget guard: one or two
// atomic adds and nothing on the heap, for the enabled and the disabled
// meter alike. These calls sit on per-record and per-page hot paths.
func TestMeterHotPathZeroAlloc(t *testing.T) {
	m := &Meter{}
	var nilM *Meter
	cases := []struct {
		name string
		fn   func()
	}{
		{"FixHit", func() { m.FixHit() }},
		{"FixMiss", func() { m.FixMiss() }},
		{"DeviceRead", func() { m.DeviceRead(4096) }},
		{"DeviceWrite", func() { m.DeviceWrite(4096) }},
		{"ExchangePush", func() { m.ExchangePush(83) }},
		{"WireRecv", func() { m.WireRecv(512) }},
		{"StreamRow", func() { m.StreamRow(40) }},
		{"nil.FixHit", func() { nilM.FixHit() }},
		{"nil.StreamRow", func() { nilM.StreamRow(40) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(1000, c.fn); allocs != 0 {
			t.Errorf("%s allocates %.1f per call, want 0", c.name, allocs)
		}
	}
}

// TestSnapshotJSONSchema pins the wire shape of the resources block as
// served in NDJSON trailers, /debug/queries and the slow-query log.
func TestSnapshotJSONSchema(t *testing.T) {
	b, err := json.Marshal(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"cpu_seconds",
		"buffer_fixes", "buffer_hits", "buffer_misses",
		"device_reads", "device_writes", "device_read_bytes", "device_write_bytes",
		"exchange_packets", "exchange_records",
		"wire_packets", "wire_bytes",
		"rows_streamed", "bytes_streamed",
	}
	if len(m) != len(want) {
		t.Errorf("snapshot has %d JSON keys, want %d: %s", len(m), len(want), b)
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("snapshot JSON missing key %q", k)
		}
	}
}
