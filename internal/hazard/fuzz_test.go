package hazard

import (
	"slices"
	"testing"
)

// FuzzTrackerMatchesReference drives the tracker's two entries — Insert
// with opaque handles and InsertKeys with each handle's index as its key —
// and refTracker, the map-and-slice tracker it replaced, with the same
// stream and requires the same answer from every insertion: the task id,
// the handle ids and the dependences, in the same order and of the same
// kinds. Order matters
// downstream: the engine registers successors, and the capture recorder
// writes a frame's dependence column, in the order Insert returns them.
//
// The input decodes as: the task count after which both trackers Reset;
// the number of handles, 1 + b%16; then per task an argument count b%5
// followed by one byte per argument, whose low nibble picks the handle
// (mod the handle count) and whose high nibble the mode (mod 3: r, w, rw).
func FuzzTrackerMatchesReference(f *testing.F) {
	f.Add([]byte{255, 0, 1, 0x10, 1, 0x00, 1, 0x00, 1, 0x00, 1, 0x10})
	f.Add([]byte{3, 3, 2, 0x20, 0x01, 3, 0x02, 0x12, 0x00, 1, 0x13, 4, 0x00, 0x01, 0x02, 0x03, 2, 0x10, 0x21, 1, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		resetAt, k := int(data[0]), 1+int(data[1])%16
		cells := make([]int, k)
		handles := make([]any, k)
		for i := range handles {
			handles[i] = &cells[i]
		}
		modes := [3]Access{Read, Write, ReadWrite}
		got, keyed, want := NewTracker(), NewTracker(), newRefTracker()
		var args []Arg
		var keys []KeyArg
		for i, task := 2, 0; i < len(data); task++ {
			if task == resetAt {
				got.Reset()
				keyed.Reset()
				want.Reset()
			}
			n := int(data[i]) % 5
			i++
			args, keys = args[:0], keys[:0]
			for ; n > 0 && i < len(data); n-- {
				b := data[i]
				i++
				h, mode := int(b&15)%k, modes[int(b>>4)%3]
				args = append(args, Arg{Handle: handles[h], Mode: mode})
				keys = append(keys, KeyArg{Key: int32(h), Mode: mode})
			}
			wid, whids, wdeps := want.Insert(args)
			id, hids, deps := got.Insert(args)
			if id != wid || !slices.Equal(hids, whids) || !slices.Equal(deps, wdeps) {
				t.Fatalf("task %d %v: tracker says id %d, handles %v, deps %v; reference says id %d, handles %v, deps %v",
					task, args, id, hids, deps, wid, whids, wdeps)
			}
			id, hids, deps = keyed.InsertKeys(keys)
			if id != wid || !slices.Equal(hids, whids) || !slices.Equal(deps, wdeps) {
				t.Fatalf("task %d %v: InsertKeys says id %d, handles %v, deps %v; reference says id %d, handles %v, deps %v",
					task, keys, id, hids, deps, wid, whids, wdeps)
			}
		}
	})
}
