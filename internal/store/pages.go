package store

import (
	"container/list"
	"errors"
	"fmt"
	"io"
	"os"
)

// pageFile is the paged block data file (blocks.dat) behind a
// fixed-size buffer pool. Frames are pinned for the duration of a copy
// and unpinned after; eviction picks the least-recently-used unpinned
// frame and writes it back if dirty. The engine's mutex serializes all
// access, so the pool needs no locking of its own.
type pageFile struct {
	f        *os.File
	pageSize int
	npages   uint32   // pages allocated in the file (high-water mark)
	free     []uint32 // freed page numbers available for reuse

	frames    map[uint32]*frame
	lru       *list.List // frames in recency order, front = coldest
	maxFrames int

	hits, misses, writebacks int64
}

// frame is one resident page.
type frame struct {
	page  uint32
	data  []byte
	dirty bool
	pins  int
	elem  *list.Element
}

func openPageFile(path string, pageSize, maxFrames int) (*pageFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	return &pageFile{
		f:         f,
		pageSize:  pageSize,
		frames:    make(map[uint32]*frame),
		lru:       list.New(),
		maxFrames: maxFrames,
	}, nil
}

// alloc returns a page number for a new page, reusing freed pages
// before growing the file.
func (p *pageFile) alloc() uint32 {
	if n := len(p.free); n > 0 {
		pg := p.free[n-1]
		p.free = p.free[:n-1]
		return pg
	}
	pg := p.npages
	p.npages++
	return pg
}

// release returns a page to the free list and drops any resident frame
// (its contents are dead; nothing to write back).
func (p *pageFile) release(pg uint32) {
	if fr, ok := p.frames[pg]; ok {
		p.lru.Remove(fr.elem)
		delete(p.frames, pg)
	}
	p.free = append(p.free, pg)
}

// pin returns the frame for pg, faulting it in (and evicting a cold
// unpinned frame) on a miss. fresh skips the disk read for pages whose
// on-disk bytes are dead (newly allocated or about to be fully
// overwritten). The caller must unpin.
func (p *pageFile) pin(pg uint32, fresh bool) (*frame, error) {
	if fr, ok := p.frames[pg]; ok {
		fr.pins++
		p.lru.MoveToBack(fr.elem)
		p.hits++
		return fr, nil
	}
	p.misses++
	if err := p.evictFor(); err != nil {
		return nil, err
	}
	fr := &frame{page: pg, data: make([]byte, p.pageSize), pins: 1}
	if !fresh {
		if _, err := p.f.ReadAt(fr.data, int64(pg)*int64(p.pageSize)); err != nil {
			// A short read past EOF is a page never written back:
			// its logical content is zeros, which ReadAt left in place.
			if !isEOF(err) {
				return nil, err
			}
		}
	}
	fr.elem = p.lru.PushBack(fr)
	p.frames[pg] = fr
	return fr, nil
}

func (p *pageFile) unpin(fr *frame) {
	if fr.pins <= 0 {
		panic("store: unpin of unpinned frame")
	}
	fr.pins--
}

// evictFor makes room for one more frame if the pool is full, writing
// back the coldest unpinned frame.
func (p *pageFile) evictFor() error {
	if len(p.frames) < p.maxFrames {
		return nil
	}
	for e := p.lru.Front(); e != nil; e = e.Next() {
		fr := e.Value.(*frame)
		if fr.pins > 0 {
			continue
		}
		if fr.dirty {
			if err := p.writeback(fr); err != nil {
				return err
			}
		}
		p.lru.Remove(e)
		delete(p.frames, fr.page)
		return nil
	}
	return fmt.Errorf("store: buffer pool exhausted (%d frames all pinned)", p.maxFrames)
}

func (p *pageFile) writeback(fr *frame) error {
	if _, err := p.f.WriteAt(fr.data, int64(fr.page)*int64(p.pageSize)); err != nil {
		return err
	}
	fr.dirty = false
	p.writebacks++
	return nil
}

// flush writes back every dirty frame (checkpoint path). Frames stay
// resident — a checkpoint must not empty the cache.
func (p *pageFile) flush() error {
	for _, fr := range p.frames {
		if fr.dirty {
			if err := p.writeback(fr); err != nil {
				return err
			}
		}
	}
	return nil
}

func (p *pageFile) sync() error  { return p.f.Sync() }
func (p *pageFile) close() error { return p.f.Close() }

func isEOF(err error) bool { return errors.Is(err, io.EOF) }
