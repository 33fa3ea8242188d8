package tse

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"

	"tsm/internal/mem"
)

func TestCMOBAppendAndAt(t *testing.T) {
	c := NewCMOB(4)
	if c.Capacity() != 4 || c.Len() != 0 {
		t.Fatalf("fresh CMOB: capacity=%d len=%d", c.Capacity(), c.Len())
	}
	offsets := make([]uint64, 0, 6)
	for i := 0; i < 6; i++ {
		offsets = append(offsets, c.Append(mem.BlockAddr(i*64)))
	}
	if c.Appends() != 6 || c.Len() != 4 {
		t.Fatalf("appends=%d len=%d, want 6/4", c.Appends(), c.Len())
	}
	// Oldest two entries (offsets 0,1) have been overwritten.
	if _, ok := c.At(offsets[0]); ok {
		t.Fatal("offset 0 should be overwritten")
	}
	if _, ok := c.At(offsets[1]); ok {
		t.Fatal("offset 1 should be overwritten")
	}
	for i := 2; i < 6; i++ {
		b, ok := c.At(offsets[i])
		if !ok || b != mem.BlockAddr(i*64) {
			t.Fatalf("At(%d) = %#x,%v want %#x", offsets[i], b, ok, i*64)
		}
	}
	if _, ok := c.At(99); ok {
		t.Fatal("future offset should not be resident")
	}
}

func TestCMOBUnlimited(t *testing.T) {
	c := NewCMOB(0)
	for i := 0; i < 1000; i++ {
		c.Append(mem.BlockAddr(i * 64))
	}
	if c.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", c.Len())
	}
	if b, ok := c.At(0); !ok || b != 0 {
		t.Fatal("unlimited CMOB should retain the first entry")
	}
	if c.StorageBytes() != 1000*CMOBEntryBytes {
		t.Fatalf("StorageBytes = %d, want %d", c.StorageBytes(), 1000*CMOBEntryBytes)
	}
}

func TestCMOBReadStream(t *testing.T) {
	c := NewCMOB(0)
	for i := 0; i < 10; i++ {
		c.Append(mem.BlockAddr(i * 64))
	}
	// Stream following entry 3 is entries 4..7 for n=4.
	addrs, last := c.ReadStream(nil, 3, 4)
	if len(addrs) != 4 || last != 7 {
		t.Fatalf("ReadStream(3,4) = %v last=%d", addrs, last)
	}
	for i, a := range addrs {
		if a != mem.BlockAddr((4+i)*64) {
			t.Fatalf("stream entry %d = %#x, want %#x", i, a, (4+i)*64)
		}
	}
	// Continue from last: entries 8,9 only.
	addrs, last = c.ReadStream(nil, last, 4)
	if len(addrs) != 2 || last != 9 {
		t.Fatalf("continued ReadStream = %v last=%d", addrs, last)
	}
	// Nothing beyond the end.
	addrs, _ = c.ReadStream(nil, 9, 4)
	if addrs != nil {
		t.Fatalf("ReadStream at tail = %v, want nil", addrs)
	}
	// Nothing for zero or negative n.
	if addrs, _ := c.ReadStream(nil, 0, 0); addrs != nil {
		t.Fatal("ReadStream with n=0 should return nil")
	}
}

func TestCMOBReadStreamOverwritten(t *testing.T) {
	c := NewCMOB(4)
	for i := 0; i < 10; i++ {
		c.Append(mem.BlockAddr(i * 64))
	}
	// Offset 2 is long overwritten: no stream available.
	if addrs, _ := c.ReadStream(nil, 2, 4); addrs != nil {
		t.Fatalf("stream from overwritten offset = %v, want nil", addrs)
	}
	// Offset 6 is still resident; stream = entries 7,8,9.
	addrs, last := c.ReadStream(nil, 6, 8)
	if len(addrs) != 3 || last != 9 {
		t.Fatalf("ReadStream(6,8) = %v last=%d", addrs, last)
	}
}

func TestCMOBReset(t *testing.T) {
	c := NewCMOB(8)
	c.Append(64)
	c.Reset()
	if c.Len() != 0 || c.Appends() != 0 {
		t.Fatal("Reset should clear the CMOB")
	}
	u := NewCMOB(0)
	u.Append(64)
	u.Reset()
	if u.Len() != 0 {
		t.Fatal("Reset should clear the unlimited CMOB")
	}
}

func TestCMOBStreamMatchesAppendOrder(t *testing.T) {
	// Property: for an unlimited CMOB, ReadStream(i, n) returns exactly
	// the blocks appended at positions i+1..i+n.
	f := func(raw []uint32, start uint8, n uint8) bool {
		c := NewCMOB(0)
		blocks := make([]mem.BlockAddr, len(raw))
		for i, r := range raw {
			blocks[i] = mem.BlockAddr(uint64(r) &^ 63)
			c.Append(blocks[i])
		}
		if len(raw) == 0 {
			return true
		}
		i := uint64(start) % uint64(len(raw))
		want := int(n%16) + 1
		addrs, _ := c.ReadStream(nil, i, want)
		for j, a := range addrs {
			idx := int(i) + 1 + j
			if idx >= len(blocks) || a != blocks[idx] {
				return false
			}
		}
		return len(addrs) <= want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// eagerCMOB is the reference a lazily grown CMOB must match: every append
// kept, residency decided by the capacity alone.
type eagerCMOB struct {
	capacity int
	all      []mem.BlockAddr
}

func (r *eagerCMOB) at(offset uint64) (mem.BlockAddr, bool) {
	n := uint64(len(r.all))
	if offset >= n || (r.capacity > 0 && n-offset > uint64(r.capacity)) {
		return 0, false
	}
	return r.all[offset], true
}

func (r *eagerCMOB) stream(offset uint64, n int) ([]mem.BlockAddr, uint64) {
	if _, ok := r.at(offset); !ok || n <= 0 {
		return nil, offset
	}
	var out []mem.BlockAddr
	last := offset
	for off := offset + 1; len(out) < n; off++ {
		b, ok := r.at(off)
		if !ok {
			break
		}
		out, last = append(out, b), off
	}
	return out, last
}

func TestCMOBLazyGrowthMatchesEager(t *testing.T) {
	for _, capacity := range []int{0, 1, 3, 8, 20} {
		c, ref := NewCMOB(capacity), &eagerCMOB{capacity: capacity}
		check := func(step string) {
			t.Helper()
			want := len(ref.all)
			if capacity > 0 {
				want = min(want, capacity)
			}
			if c.Len() != want || c.StorageBytes() != want*CMOBEntryBytes {
				t.Fatalf("cap %d %s: Len = %d, StorageBytes = %d with %d appends", capacity, step, c.Len(), c.StorageBytes(), len(ref.all))
			}
			if capacity > 0 && cap(c.log.entries) > capacity {
				t.Fatalf("cap %d %s: storage grew to %d entries", capacity, step, cap(c.log.entries))
			}
			for off := uint64(0); off <= uint64(len(ref.all))+1; off++ {
				gb, gok := c.At(off)
				wb, wok := ref.at(off)
				if gb != wb || gok != wok {
					t.Fatalf("cap %d %s: At(%d) = %#x,%v want %#x,%v", capacity, step, off, gb, gok, wb, wok)
				}
				for n := 0; n <= capacity+2; n++ {
					prefix := []mem.BlockAddr{1}
					got, glast := c.ReadStream(prefix, off, n)
					want, wlast := ref.stream(off, n)
					if glast != wlast || len(got) != 1+len(want) || got[0] != 1 {
						t.Fatalf("cap %d %s: ReadStream(%d,%d) = %v,%d want [1]+%v,%d", capacity, step, off, n, got, glast, want, wlast)
					}
					for i, b := range want {
						if got[1+i] != b {
							t.Fatalf("cap %d %s: ReadStream(%d,%d)[%d] = %#x want %#x", capacity, step, off, n, i, got[1+i], b)
						}
					}
				}
			}
		}
		// Below, at and beyond capacity, then again after a Reset taken
		// mid-stream (before the ring has wrapped when capacity allows).
		for round, appends := range []int{2*capacity + 5, capacity/2 + 1, 2*capacity + 3} {
			for i := 0; i < appends; i++ {
				b := mem.BlockAddr((round*100 + i) * 64)
				if off := c.Append(b); off != uint64(len(ref.all)) {
					t.Fatalf("cap %d: Append returned offset %d, want %d", capacity, off, len(ref.all))
				}
				ref.all = append(ref.all, b)
				check(fmt.Sprintf("round %d append %d", round, i))
			}
			c.Reset()
			ref.all = nil
			check(fmt.Sprintf("round %d reset", round))
		}
	}
}

func TestNewCMOBAllocatesNoRing(t *testing.T) {
	// The paper's 1.5 MB ring: a fresh CMOB must not allocate it.
	const calls = 100
	cmobs := make([]*CMOB, calls)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := range cmobs {
		cmobs[i] = NewCMOB(262144)
	}
	runtime.ReadMemStats(&ms1)
	if got := (ms1.TotalAlloc - ms0.TotalAlloc) / calls; got >= 1024 {
		t.Fatalf("NewCMOB(262144) allocated %d bytes, want < 1 KB", got)
	}
	c := cmobs[0]
	if c.Capacity() != 262144 || c.Len() != 0 || c.StorageBytes() != 0 {
		t.Fatalf("fresh CMOB: capacity=%d len=%d storage=%d", c.Capacity(), c.Len(), c.StorageBytes())
	}
}
