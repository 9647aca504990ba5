package idio

import (
	"bytes"
	"testing"

	"idio/internal/apps"
	fnet "idio/internal/net"
	"idio/internal/sim"
	"idio/internal/traffic"
)

// surgeLoad mixes a steady closed-loop client with an open-loop
// surge past the DUT's capacity and a late ramp, so latency climbs,
// drains and climbs again: a snapshot's new samples land below, among
// and above the ones recorded before, exercising every case of the
// sorted-prefix merge.
func surgeLoad(cl *Cluster) {
	for c := 0; c < 2; c++ {
		cl.DUT.AddNF(c, apps.L2Fwd{}, cl.DUT.DefaultFlow(c))
	}
	cl.AddRPCClient(0, 0, fnet.ClientConfig{Mode: fnet.ModeClosed, Outstanding: 4, Requests: 3000})
	cl.AddRPCClient(1, 1, fnet.ClientConfig{
		Mode: fnet.ModeOpen, RateBps: traffic.Gbps(60), Requests: 800,
		Start: sim.Time(300 * sim.Microsecond),
	})
	cl.AddRPCClient(2, 0, fnet.ClientConfig{
		Mode: fnet.ModeRamp, RateBps: traffic.Gbps(1), RampToBps: traffic.Gbps(60),
		Requests: 1500, Start: sim.Time(1500 * sim.Microsecond),
	})
}

// TestSteppedCollectMatchesOneRun drives a cluster to its horizon in
// 100 µs Run steps — each one collecting, so every latency store, the
// merged RPC histogram and the LLC IO-line count are snapshotted dozens
// of times mid-run — and demands the same stats dump as a single Run
// to the same horizon, at one and two event domains. Snapshots must be
// pure reads: incremental state kept between them may never change
// what the final one reports.
func TestSteppedCollectMatchesOneRun(t *testing.T) {
	const (
		step    = 100 * sim.Microsecond
		horizon = 3 * sim.Millisecond
	)
	var ref []byte
	for _, shards := range []int{1, 2} {
		run := func(stepped bool) []byte {
			cfg := DefaultClusterConfig(2, 3)
			cfg.Shards = shards
			cl, err := NewCluster(cfg)
			if err != nil {
				t.Fatalf("shards=%d: NewCluster: %v", shards, err)
			}
			surgeLoad(cl)
			if stepped {
				midRun := false
				for h := step; h < horizon; h += step {
					res, err := cl.Run(RunOpts{Horizon: h})
					if err != nil {
						t.Fatalf("shards=%d: Run(%v): %v", shards, h, err)
					}
					if res.Cores[0].Processed > 0 && res.RPC.Responses > 0 {
						midRun = true
					}
				}
				if !midRun {
					t.Fatalf("shards=%d: no samples before the final step; the test exercises nothing", shards)
				}
			}
			res, err := cl.Run(RunOpts{Horizon: horizon})
			if err != nil {
				t.Fatalf("shards=%d: Run: %v", shards, err)
			}
			var buf bytes.Buffer
			if err := res.WriteStats(&buf); err != nil {
				t.Fatalf("WriteStats: %v", err)
			}
			return buf.Bytes()
		}
		once, stepped := run(false), run(true)
		if !bytes.Equal(once, stepped) {
			t.Errorf("shards=%d: stepped run's stats dump differs from one run's\n--- one run\n%s\n--- stepped\n%s",
				shards, once, stepped)
		}
		// Across shard counts only the per-domain packet pools differ.
		if ref == nil {
			ref = withoutPoolLines(once)
		} else if got := withoutPoolLines(once); !bytes.Equal(ref, got) {
			t.Errorf("shards=%d: stats dump differs from the unsharded run's\n--- unsharded\n%s\n--- sharded\n%s",
				shards, ref, got)
		}
	}
}

// withoutPoolLines drops the pkt_pool.* lines from a stats dump.
func withoutPoolLines(dump []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(dump, []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("pkt_pool.")) {
			out = append(out, line...)
		}
	}
	return out
}
