package aggsvc_test

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hear/internal/aggsvc"
	"hear/internal/aggsvc/federation"
)

// TestJoinWakeBackToBack runs 200 back-to-back verified rounds through a
// flat gateway and through a 2-tier federation. Fixing a round's epoch
// pokes every parked participant awake, so no round waits out the JOIN
// probe: the mean round time must stay below joinProbeInterval. A poke
// that landed after awaitFull cleared it would kill the participant's
// first SUBMIT read and abort the round, so no round may abort either.
func TestJoinWakeBackToBack(t *testing.T) {
	const clients, elems, rounds = 2, 64, 200
	inputs := make([][]int64, clients)
	want := make([]int64, elems)
	for i := range inputs {
		inputs[i] = make([]int64, elems)
		for j := range inputs[i] {
			inputs[i][j] = int64(i*1000+j) - 77
			want[j] += inputs[i][j]
		}
	}
	for _, tiers := range []int{1, 2} {
		t.Run(fmt.Sprintf("tiers=%d", tiers), func(t *testing.T) {
			var servers []*aggsvc.Server
			serve := func(cfg aggsvc.Config) *aggsvc.PipeListener {
				s, err := aggsvc.NewServer(cfg)
				if err != nil {
					t.Fatal(err)
				}
				l := aggsvc.NewPipeListener()
				go s.Serve(l)
				t.Cleanup(func() { s.Close() })
				servers = append(servers, s)
				return l
			}
			front := serve(aggsvc.Config{Group: clients})
			if tiers == 2 {
				root := front
				u, err := federation.New(federation.Config{Dial: root.Dial, Timeout: 30 * time.Second})
				if err != nil {
					t.Fatal(err)
				}
				// A leaf of two one-client cohorts cascading into the root.
				var next atomic.Int64
				front = serve(aggsvc.Config{Group: 1, Cohorts: clients, Uplink: u.Dialer(),
					CohortBy: func(net.Addr) int { return int((next.Add(1) - 1) % clients) }})
			}
			sealers := setupGroup(t, clients, 0x10ad)
			var wg sync.WaitGroup
			errs := make([]error, clients)
			start := time.Now()
			for i := range sealers {
				conn, err := front.Dial()
				if err != nil {
					t.Fatal(err)
				}
				c := aggsvc.NewClient(conn, sealers[i], aggsvc.ClientOptions{Timeout: 30 * time.Second})
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer c.Close()
					out := make([]int64, elems)
					for r := 0; r < rounds; r++ {
						if _, err := c.Aggregate(inputs[i], out); err != nil {
							errs[i] = fmt.Errorf("round %d: %w", r, err)
							return
						}
						for j := range out {
							if out[j] != want[j] {
								errs[i] = fmt.Errorf("round %d elem %d = %d, want %d", r, j, out[j], want[j])
								return
							}
						}
					}
				}(i)
			}
			wg.Wait()
			mean := time.Since(start) / rounds
			for i, err := range errs {
				if err != nil {
					t.Fatalf("client %d: %v", i, err)
				}
			}
			for tier, s := range servers {
				if n := s.StatsMap()["rounds_aborted"]; n != 0 {
					t.Errorf("tier %d aborted %d rounds", tier, n)
				}
			}
			t.Logf("%d rounds, mean %v per round", rounds, mean)
			if mean >= aggsvc.JoinProbeInterval {
				t.Errorf("mean round time %v ≥ the %v JOIN probe: parked participants are not woken at JOIN", mean, aggsvc.JoinProbeInterval)
			}
		})
	}
}
