package main

import (
	"bytes"
	"time"

	"ear/internal/blockstore"
	"ear/internal/erasure"
	"ear/internal/gf256"
	"ear/internal/hdfs"
	"ear/internal/placement"
	"ear/internal/topology"
)

// Direct calls into the lower layers' public functions at the workload's
// block size, timed outside any cluster: what each layer costs on its own.

// sink keeps the timed calls' results observable so none is optimized away.
var sink byte

// timeEach runs fn n times and returns the mean µs per call.
func timeEach(n int, fn func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(n)
}

// layerCosts measures NameNode allocation, the blockstore, the erasure
// coder and the GF(256) kernel at block size bs.
func layerCosts(bs int, seed int64) (map[string]float64, error) {
	out := make(map[string]float64)
	top, err := topology.New(racks, nodesPerRack)
	if err != nil {
		return nil, err
	}
	nn, err := hdfs.NewShardedNameNode(placement.Config{
		Topology: top, Replicas: replicas, K: codeK, N: codeN, C: codeC,
	}, "ear", seed, false)
	if err != nil {
		return nil, err
	}
	var nnErr error
	out["namenode.alloc_commit_us"] = timeEach(4000, func(int) {
		m, err := nn.AllocateBlock(bs)
		if err == nil {
			err = nn.CommitBlock(m.ID)
		}
		if err != nil {
			nnErr = err
		}
	})
	if nnErr != nil {
		return nil, nnErr
	}

	// Enough blocks to move 32 MiB through the store.
	n := 32 * mib / bs
	if n > 4096 {
		n = 4096
	}
	store := blockstore.New()
	buf := make([]byte, bs)
	fill(buf, uint64(seed))
	var bsErr error
	out["blockstore.put_us"] = timeEach(n, func(i int) {
		if err := store.Put(blockstore.Key{Kind: blockstore.Data, ID: int64(i)}, buf); err != nil {
			bsErr = err
		}
	})
	out["blockstore.getinto_us"] = timeEach(n, func(i int) {
		if err := store.GetInto(blockstore.Key{Kind: blockstore.Data, ID: int64(i)}, buf); err != nil {
			bsErr = err
		}
	})
	if bsErr != nil {
		return nil, bsErr
	}

	coder, err := erasure.New(codeN, codeK, erasure.ReedSolomon)
	if err != nil {
		return nil, err
	}
	data := make([][]byte, codeK)
	for i := range data {
		data[i] = make([]byte, bs)
		fill(data[i], uint64(seed)+uint64(i))
	}
	parity := make([][]byte, codeN-codeK)
	for i := range parity {
		parity[i] = make([]byte, bs)
	}
	stripes := 64 * mib / (codeK * bs)
	var ecErr error
	out["erasure.encode_into_us"] = timeEach(stripes, func(int) {
		if err := coder.EncodeInto(data, parity); err != nil {
			ecErr = err
		}
	})
	// Lose data block 0; rebuild it from the other five data blocks and the
	// first parity.
	present := map[int][]byte{codeK: parity[0]}
	for i := 1; i < codeK; i++ {
		present[i] = data[i]
	}
	rebuilt := make([]byte, bs)
	out["erasure.reconstruct_block_into_us"] = timeEach(stripes, func(int) {
		if err := coder.ReconstructBlockInto(present, 0, rebuilt); err != nil {
			ecErr = err
		}
	})
	if ecErr != nil {
		return nil, ecErr
	}
	if !bytes.Equal(rebuilt, data[0]) {
		return nil, errMismatch
	}
	survivors := []int{1, 2, 3, 4, 5, codeK}
	out["erasure.decode_row_us"] = timeEach(20000, func(int) {
		row, err := coder.DecodeRow(survivors, 0)
		if err != nil {
			ecErr = err
			return
		}
		sink ^= row[0]
	})
	if ecErr != nil {
		return nil, ecErr
	}

	const kernelBytes = 256 * mib
	src, dst := data[0], parity[0]
	calls := kernelBytes / bs
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		gf256.MulAddSlice(0x8e, src, dst)
	}
	out["gf256.muladd_gbps"] = float64(calls*bs) / time.Since(t0).Seconds() / 1e9
	sink ^= dst[0]
	return out, nil
}
