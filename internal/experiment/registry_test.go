package experiment

import (
	"reflect"
	"strings"
	"testing"

	fnet "idio/internal/net"
	"idio/internal/scenario"
	"idio/internal/sim"
)

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{"verify": true, "all": true}
	for _, e := range Registry {
		if seen[e.Name] {
			t.Fatalf("experiment name %q is taken", e.Name)
		}
		seen[e.Name] = true
	}
}

func TestRPCOptsApplyScenario(t *testing.T) {
	topo := func(rpc *scenario.RPCSpec) *scenario.Topology {
		return &scenario.Topology{
			Clients:    3,
			ClientLink: scenario.TopoLink{Gbps: 25, DelayUS: 1, Queue: 64},
			ServerLink: scenario.TopoLink{Gbps: 100},
			RPC:        rpc,
		}
	}
	base := func() RPCOpts {
		o := DefaultRPCOpts()
		o.LoadsGbps = []float64{5, 15}
		o.Windows = []int{1, 16}
		return o
	}
	link := fnet.LinkConfig{RateBps: 25e9, Delay: sim.Microsecond, QueueDepth: 64}
	for _, tc := range []struct {
		name string
		sc   scenario.Scenario
		want func(*RPCOpts)
		err  string
	}{
		{
			name: "no topology",
			sc:   scenario.Scenario{Name: "solo", Cores: 2},
			err:  `scenario "solo" has no topology section`,
		},
		{
			name: "geometry only",
			sc:   scenario.Scenario{Cores: 4, Topology: topo(nil)},
			want: func(o *RPCOpts) { o.Cores, o.Clients, o.Link = 4, 3, link },
		},
		{
			name: "ring and horizon",
			sc:   scenario.Scenario{Cores: 2, RingSize: 128, HorizonMS: 2.5, Topology: topo(nil)},
			want: func(o *RPCOpts) {
				o.Cores, o.Clients, o.Link = 2, 3, link
				o.RingSize, o.Horizon = 128, 2500*sim.Microsecond
			},
		},
		{
			name: "frame, requests, timeout, closed window folded",
			sc: scenario.Scenario{Cores: 2, Topology: topo(&scenario.RPCSpec{
				Mode: "closed", Outstanding: 8, Requests: 300, FrameLen: 256, TimeoutUS: 200,
			})},
			want: func(o *RPCOpts) {
				o.Cores, o.Clients, o.Link = 2, 3, link
				o.FrameLen, o.Requests, o.Timeout = 256, 300, 200*sim.Microsecond
				o.Windows = []int{1, 16, 8}
			},
		},
		{
			name: "closed window already swept",
			sc:   scenario.Scenario{Cores: 2, Topology: topo(&scenario.RPCSpec{Mode: "closed", Outstanding: 16})},
			want: func(o *RPCOpts) { o.Cores, o.Clients, o.Link = 2, 3, link },
		},
		{
			name: "open load folded",
			sc:   scenario.Scenario{Cores: 2, Topology: topo(&scenario.RPCSpec{Mode: "open", Gbps: 40})},
			want: func(o *RPCOpts) {
				o.Cores, o.Clients, o.Link = 2, 3, link
				o.LoadsGbps = []float64{5, 15, 40}
			},
		},
		{
			name: "ramp start load already swept",
			sc:   scenario.Scenario{Cores: 2, Topology: topo(&scenario.RPCSpec{Mode: "ramp", Gbps: 15, RampToGbps: 30})},
			want: func(o *RPCOpts) { o.Cores, o.Clients, o.Link = 2, 3, link },
		},
	} {
		got := base()
		err := got.ApplyScenario(&tc.sc)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("%s: error %v, want %q", tc.name, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		want := base()
		tc.want(&want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n got  %+v\n want %+v", tc.name, got, want)
		}
	}
}
