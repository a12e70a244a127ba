package keylock

import (
	"sync"
	"testing"
)

// TestSameKeyExcludes: holders of one key never overlap, and the table
// is empty once every holder has left.
func TestSameKeyExcludes(t *testing.T) {
	var (
		tbl     Table[int]
		wg      sync.WaitGroup
		inside  [4]int
		counter [4]int
	)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g + i) % len(inside)
				tbl.Lock(k)
				inside[k]++
				if inside[k] != 1 {
					t.Errorf("key %d held by %d goroutines", k, inside[k])
				}
				counter[k]++
				inside[k]--
				tbl.Unlock(k)
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, c := range counter {
		total += c
	}
	if total != 8*200 {
		t.Fatalf("counted %d lock holds, want %d", total, 8*200)
	}
	if n := len(tbl.held); n != 0 {
		t.Fatalf("%d entries left after every holder unlocked", n)
	}
}

// TestDistinctKeysDoNotBlock: holding one key leaves another free.
func TestDistinctKeysDoNotBlock(t *testing.T) {
	var tbl Table[string]
	tbl.Lock("a")
	done := make(chan struct{})
	go func() {
		tbl.Lock("b")
		tbl.Unlock("b")
		close(done)
	}()
	<-done
	tbl.Unlock("a")
	if n := len(tbl.held); n != 0 {
		t.Fatalf("%d entries left", n)
	}
}
