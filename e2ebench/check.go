package main

import (
	"fmt"
	"hash/crc32"
	"runtime"
	"sync"

	"damaris/internal/dsf"
	"damaris/internal/store"
)

// checkResult is the outcome of reading a repetition's output back.
type checkResult struct {
	chunks      int   // chunks the clients wrote
	failed      int   // missing, duplicated or mismatching chunks
	objects     int   // committed objects read
	storedBytes int64 // Σ committed object sizes
	firstErr    error
}

func (c *checkResult) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// readBack opens the repetition's storage afresh through store.Open, reads
// every committed object through dsf and checks that each chunk a client
// wrote appears exactly once with the bytes it wrote. It runs after the
// world has shut down, outside every timed region, decoding objects on all
// CPUs.
func readBack(url string, clients []*clientRec) checkResult {
	want := map[chunkKey]chunkSum{}
	for _, c := range clients {
		for k, v := range c.sums {
			want[k] = v
		}
	}
	res := checkResult{chunks: len(want)}
	b, err := store.Open(url)
	if err != nil {
		res.fail(err)
		res.failed = len(want)
		return res
	}
	defer b.Close()
	objs, err := b.Objects()
	if err != nil {
		res.fail(err)
		res.failed = len(want)
		return res
	}

	found := make([][]storedChunk, len(objs))
	errs := make([]error, len(objs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				found[i], errs[i] = readObject(b, objs[i].Name)
			}
		}()
	}
	for i := range objs {
		next <- i
	}
	close(next)
	wg.Wait()

	seen := map[chunkKey]bool{}
	for i, o := range objs {
		res.objects++
		res.storedBytes += o.Size
		if errs[i] != nil {
			res.fail(fmt.Errorf("object %s: %w", o.Name, errs[i]))
		}
		for _, c := range found[i] {
			k := c.key
			w, ok := want[k]
			switch {
			case c.err != nil:
				res.fail(fmt.Errorf("chunk %s it=%d src=%d: %w", k.name, k.it, k.src, c.err))
			case !ok:
				res.fail(fmt.Errorf("chunk %s it=%d src=%d was never written", k.name, k.it, k.src))
			case seen[k]:
				res.fail(fmt.Errorf("chunk %s it=%d src=%d stored twice", k.name, k.it, k.src))
			case c.sum != w:
				res.fail(fmt.Errorf("chunk %s it=%d src=%d differs from what the client wrote", k.name, k.it, k.src))
			}
			seen[k] = true
		}
	}
	for k := range want {
		if !seen[k] {
			res.fail(fmt.Errorf("chunk %s it=%d src=%d never stored", k.name, k.it, k.src))
		}
	}
	return res
}

// storedChunk is one chunk as read back: its key and the checksum of its
// decoded bytes, or the error decoding it.
type storedChunk struct {
	key chunkKey
	sum chunkSum
	err error
}

func readObject(b store.Backend, name string) ([]storedChunk, error) {
	r, err := b.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	dr, err := dsf.OpenReaderAt(r, r.Size())
	if err != nil {
		return nil, err
	}
	out := make([]storedChunk, 0, dr.NumChunks())
	for i := 0; i < dr.NumChunks(); i++ {
		m, err := dr.Chunk(i)
		if err != nil {
			return out, err
		}
		c := storedChunk{key: chunkKey{m.Name, m.Iteration, m.Source}}
		data, err := dr.ReadChunk(i)
		if err != nil {
			c.err = err
		} else {
			c.sum = chunkSum{crc32.Checksum(data, crcTable), len(data)}
		}
		out = append(out, c)
	}
	return out, nil
}
