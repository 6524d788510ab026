// Package device implements Volcano's device layer: real (disk) devices
// holding stored files, and virtual devices whose pages hold intermediate
// results (paper, §3). Devices hand out fixed-size pages identified by page
// number; the buffer manager is the only component that reads or writes
// page contents.
//
// Concurrency follows §4.5 of the paper: each disk device has a "device
// busy" lock held across seek/read/write, and a "map busy" lock protecting
// the free-space bitmap.
package device

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/record"
)

// PageSize is the size of every page (cluster) in the system, in bytes.
const PageSize = 4096

// Device is the abstraction the buffer manager and file system operate on.
// Page numbers start at 1; page 0 is the nil sentinel.
type Device interface {
	// ID returns the device's identity within its registry.
	ID() record.DeviceID
	// ReadPage reads page into buf, which must be PageSize bytes.
	ReadPage(page uint32, buf []byte) error
	// WritePage writes the PageSize bytes of data to page.
	WritePage(page uint32, data []byte) error
	// AllocPage allocates a fresh page and returns its number.
	AllocPage() (uint32, error)
	// FreePage returns a page to the free pool.
	FreePage(page uint32) error
	// Allocated reports the number of currently allocated pages.
	Allocated() int
	// Virtual reports whether the device is a buffer-resident virtual
	// device (true) or a disk (false).
	Virtual() bool
	// Close releases underlying resources.
	Close() error
}

// Disk is a file-backed disk device with a free-space bitmap.
type Disk struct {
	id       record.DeviceID
	f        *os.File
	capacity uint32

	// busy is the paper's "device busy" lock, held while seeking and
	// transferring (§4.5).
	busy sync.Mutex

	// mapBusy is the paper's "map busy" lock protecting the bitmap.
	mapBusy   sync.Mutex
	bitmap    []uint64
	allocated int
}

// Superblock layout (page 0):
//
//	magic(8) | capacity(4) | allocated(4) | bitmapPages(4)
//
// followed by the free-space bitmap in pages 1..bitmapPages. Page 0 and
// the bitmap pages are marked allocated and never handed out.
var diskMagic = [8]byte{'V', 'O', 'L', 'C', 'D', 'S', 'K', '1'}

// bitmapLayout computes the bitmap size for a capacity.
func bitmapLayout(capacity uint32) (words int, pages uint32) {
	words = int((capacity+64)/64 + 1)
	bytes := words * 8
	pages = uint32((bytes + PageSize - 1) / PageSize)
	return words, pages
}

// NewDisk creates (formatting) a disk device backed by path with room for
// capacity pages. The superblock and free-space bitmap live in the first
// pages; call Sync to persist allocation state, and OpenDisk to remount.
func NewDisk(id record.DeviceID, path string, capacity uint32) (*Disk, error) {
	if capacity == 0 {
		return nil, fmt.Errorf("device: zero capacity")
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	words, metaPages := bitmapLayout(capacity)
	if metaPages+1 >= capacity {
		f.Close()
		return nil, fmt.Errorf("device: capacity %d too small for metadata", capacity)
	}
	d := &Disk{
		id:       id,
		f:        f,
		capacity: capacity,
		bitmap:   make([]uint64, words),
	}
	// Page 0 (superblock) and the bitmap pages are never allocatable.
	for pg := uint32(0); pg <= metaPages; pg++ {
		d.bitmap[pg/64] |= 1 << (pg % 64)
	}
	if err := d.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return d, nil
}

// OpenDisk mounts an existing disk device created by NewDisk, restoring
// its capacity and free-space bitmap from the superblock.
func OpenDisk(id record.DeviceID, path string) (*Disk, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("device: open %s: %w", path, err)
	}
	super := make([]byte, PageSize)
	if _, err := f.ReadAt(super, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("device: read superblock of %s: %w", path, err)
	}
	if string(super[:8]) != string(diskMagic[:]) {
		f.Close()
		return nil, fmt.Errorf("device: %s is not a volcano disk", path)
	}
	capacity := binaryLE32(super[8:])
	allocated := int(binaryLE32(super[12:]))
	words, metaPages := bitmapLayout(capacity)
	raw := make([]byte, int(metaPages)*PageSize)
	if _, err := f.ReadAt(raw, PageSize); err != nil {
		f.Close()
		return nil, fmt.Errorf("device: read bitmap of %s: %w", path, err)
	}
	d := &Disk{
		id:        id,
		f:         f,
		capacity:  capacity,
		allocated: allocated,
		bitmap:    make([]uint64, words),
	}
	for i := range d.bitmap {
		d.bitmap[i] = binaryLE64(raw[i*8:])
	}
	return d, nil
}

// Sync persists the superblock and free-space bitmap.
func (d *Disk) Sync() error {
	d.mapBusy.Lock()
	words := len(d.bitmap)
	_, metaPages := bitmapLayout(d.capacity)
	super := make([]byte, PageSize)
	copy(super, diskMagic[:])
	putLE32(super[8:], d.capacity)
	putLE32(super[12:], uint32(d.allocated))
	putLE32(super[16:], metaPages)
	raw := make([]byte, int(metaPages)*PageSize)
	for i := 0; i < words; i++ {
		putLE64(raw[i*8:], d.bitmap[i])
	}
	d.mapBusy.Unlock()

	d.busy.Lock()
	defer d.busy.Unlock()
	if _, err := d.f.WriteAt(super, 0); err != nil {
		return fmt.Errorf("device %d: write superblock: %w", d.id, err)
	}
	if _, err := d.f.WriteAt(raw, PageSize); err != nil {
		return fmt.Errorf("device %d: write bitmap: %w", d.id, err)
	}
	return d.f.Sync()
}

func binaryLE32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLE32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func binaryLE64(b []byte) uint64 {
	return uint64(binaryLE32(b)) | uint64(binaryLE32(b[4:]))<<32
}

func putLE64(b []byte, v uint64) {
	putLE32(b, uint32(v))
	putLE32(b[4:], uint32(v>>32))
}

// ID implements Device.
func (d *Disk) ID() record.DeviceID { return d.id }

// Virtual implements Device.
func (d *Disk) Virtual() bool { return false }

// FirstDataPage returns the first page number past the superblock and
// bitmap; durable volumes root their VTOC there.
func (d *Disk) FirstDataPage() uint32 {
	_, metaPages := bitmapLayout(d.capacity)
	return metaPages + 1
}

// Allocated implements Device.
func (d *Disk) Allocated() int {
	d.mapBusy.Lock()
	defer d.mapBusy.Unlock()
	return d.allocated
}

func (d *Disk) checkPage(page uint32) error {
	if page == 0 || page > d.capacity {
		return fmt.Errorf("device %d: page %d out of range (capacity %d)", d.id, page, d.capacity)
	}
	return nil
}

// ReadPage implements Device.
func (d *Disk) ReadPage(page uint32, buf []byte) error {
	if err := d.checkPage(page); err != nil {
		return err
	}
	if len(buf) != PageSize {
		return fmt.Errorf("device %d: read buffer is %d bytes, want %d", d.id, len(buf), PageSize)
	}
	// The device busy lock serialises the seek+transfer pair so two
	// processes cannot interleave seeks (§4.5).
	d.busy.Lock()
	defer d.busy.Unlock()
	n, err := d.f.ReadAt(buf, int64(page)*PageSize)
	if err != nil {
		if err != io.EOF && err != io.ErrUnexpectedEOF {
			return fmt.Errorf("device %d: read page %d: %w", d.id, page, err)
		}
		// Reading a page that was allocated but never written yields zeros.
		for i := n; i < PageSize; i++ {
			buf[i] = 0
		}
	}
	countRead()
	return nil
}

// WritePage implements Device.
func (d *Disk) WritePage(page uint32, data []byte) error {
	if err := d.checkPage(page); err != nil {
		return err
	}
	if len(data) != PageSize {
		return fmt.Errorf("device %d: write buffer is %d bytes, want %d", d.id, len(data), PageSize)
	}
	d.busy.Lock()
	defer d.busy.Unlock()
	if _, err := d.f.WriteAt(data, int64(page)*PageSize); err != nil {
		return fmt.Errorf("device %d: write page %d: %w", d.id, page, err)
	}
	countWrite()
	return nil
}

// AllocPage implements Device.
func (d *Disk) AllocPage() (uint32, error) {
	d.mapBusy.Lock()
	defer d.mapBusy.Unlock()
	for w, bits := range d.bitmap {
		if bits == ^uint64(0) {
			continue
		}
		for b := 0; b < 64; b++ {
			if bits&(1<<uint(b)) == 0 {
				page := uint32(w*64 + b)
				if page > d.capacity {
					return 0, fmt.Errorf("device %d: full (%d pages)", d.id, d.capacity)
				}
				d.bitmap[w] |= 1 << uint(b)
				d.allocated++
				return page, nil
			}
		}
	}
	return 0, fmt.Errorf("device %d: full (%d pages)", d.id, d.capacity)
}

// FreePage implements Device.
func (d *Disk) FreePage(page uint32) error {
	if err := d.checkPage(page); err != nil {
		return err
	}
	d.mapBusy.Lock()
	defer d.mapBusy.Unlock()
	w, b := page/64, page%64
	if d.bitmap[w]&(1<<b) == 0 {
		return fmt.Errorf("device %d: double free of page %d", d.id, page)
	}
	d.bitmap[w] &^= 1 << b
	d.allocated--
	return nil
}

// Close implements Device.
func (d *Disk) Close() error { return d.f.Close() }

// Mem is a virtual device: its pages live in memory and serve as backing
// store for intermediate results, giving them unique RIDs and letting
// operators manage them "as if they resided on a real device" (paper §3).
type Mem struct {
	id record.DeviceID

	mu    sync.Mutex
	pages map[uint32][]byte
	next  uint32
	freed []uint32
}

// NewMem creates a virtual device.
func NewMem(id record.DeviceID) *Mem {
	return &Mem{id: id, pages: make(map[uint32][]byte), next: 1}
}

// ID implements Device.
func (m *Mem) ID() record.DeviceID { return m.id }

// Virtual implements Device.
func (m *Mem) Virtual() bool { return true }

// Allocated implements Device.
func (m *Mem) Allocated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.pages)
}

// ReadPage implements Device.
func (m *Mem) ReadPage(page uint32, buf []byte) error {
	if len(buf) != PageSize {
		return fmt.Errorf("device %d: read buffer is %d bytes, want %d", m.id, len(buf), PageSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.pages[page]
	if !ok {
		return fmt.Errorf("device %d: virtual page %d does not exist", m.id, page)
	}
	if data == nil {
		for i := range buf {
			buf[i] = 0
		}
		countRead()
		return nil
	}
	copy(buf, data)
	countRead()
	return nil
}

// WritePage implements Device.
func (m *Mem) WritePage(page uint32, data []byte) error {
	if len(data) != PageSize {
		return fmt.Errorf("device %d: write buffer is %d bytes, want %d", m.id, len(data), PageSize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[page]; !ok {
		return fmt.Errorf("device %d: virtual page %d does not exist", m.id, page)
	}
	m.pages[page] = append([]byte(nil), data...)
	countWrite()
	return nil
}

// AllocPage implements Device.
func (m *Mem) AllocPage() (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var page uint32
	if n := len(m.freed); n > 0 {
		page = m.freed[n-1]
		m.freed = m.freed[:n-1]
	} else {
		page = m.next
		m.next++
	}
	m.pages[page] = nil
	return page, nil
}

// FreePage implements Device.
func (m *Mem) FreePage(page uint32) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.pages[page]; !ok {
		return fmt.Errorf("device %d: double free of virtual page %d", m.id, page)
	}
	delete(m.pages, page)
	m.freed = append(m.freed, page)
	return nil
}

// Close implements Device.
func (m *Mem) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.pages = make(map[uint32][]byte)
	return nil
}

// Registry maps device IDs to mounted devices. Mounting is one of the
// "typically non-repetitive actions" the paper requires the query root
// process to perform before parallel evaluation; the registry is
// nevertheless safe for concurrent lookup.
type Registry struct {
	mu      sync.RWMutex
	devices map[record.DeviceID]Device
	nextID  record.DeviceID
}

// NewRegistry creates an empty device registry.
func NewRegistry() *Registry {
	return &Registry{devices: make(map[record.DeviceID]Device), nextID: 1}
}

// NextID reserves and returns a fresh device ID.
func (r *Registry) NextID() record.DeviceID {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.nextID
	r.nextID++
	return id
}

// Mount registers a device.
func (r *Registry) Mount(d Device) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.devices[d.ID()]; dup {
		return fmt.Errorf("device: id %d already mounted", d.ID())
	}
	r.devices[d.ID()] = d
	if d.ID() >= r.nextID {
		r.nextID = d.ID() + 1
	}
	return nil
}

// Unmount removes a device from the registry (does not close it).
func (r *Registry) Unmount(id record.DeviceID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.devices[id]; !ok {
		return fmt.Errorf("device: id %d not mounted", id)
	}
	delete(r.devices, id)
	return nil
}

// Get looks up a mounted device.
func (r *Registry) Get(id record.DeviceID) (Device, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.devices[id]
	if !ok {
		return nil, fmt.Errorf("device: id %d not mounted", id)
	}
	return d, nil
}

// CloseAll closes every mounted device.
func (r *Registry) CloseAll() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for id, d := range r.devices {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
		delete(r.devices, id)
	}
	return first
}
