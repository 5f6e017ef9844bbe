// Command cluster demonstrates the §6 multi-host extension: bandwidth-aware
// VM placement across RTVirt hosts, live migration with its overhead made
// visible as (bounded) deadline misses, and failover after a host crash.
// Each host runs on its own simulator; the control calls happen between
// runs.
package main

import (
	"fmt"
	"log"

	"rtvirt"
)

func main() {
	cfg := rtvirt.ClusterDefaults()
	cfg.Hosts = 2
	cfg.PCPUs = 2
	cfg.Policy = rtvirt.BestFit // consolidate first, rebalance later
	c := rtvirt.NewCluster(cfg)

	// Place four 40%-CPU streaming VMs; best-fit packs them tightly.
	for i := 0; i < 4; i++ {
		spec := rtvirt.VMSpec{
			Name:  fmt.Sprintf("stream%d", i),
			VCPUs: 1,
			Tasks: []rtvirt.ClusterTaskSpec{{
				Name: "transcode",
				Kind: rtvirt.Periodic,
				Params: rtvirt.Params{
					Slice:  16 * rtvirt.Millisecond,
					Period: 40 * rtvirt.Millisecond,
				},
			}},
		}
		d, err := c.Place(spec)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("placed %-8s on %s\n", spec.Name, c.Hosts[d.HostIndex()].Name)
	}
	c.Start()
	c.Run(5 * rtvirt.Second)

	show := func(label string) {
		fmt.Printf("\n%s:\n", label)
		for _, h := range c.Hosts {
			fmt.Printf("  %s reserves %.2f of %.0f CPUs\n",
				h.Name, h.ReservedBandwidth(), h.Capacity())
		}
	}
	show("after best-fit placement")

	// Rebalance: migrate until the spread is within 0.3 CPUs.
	moves := c.Rebalance(0.3)
	c.Run(5 * rtvirt.Second)
	show(fmt.Sprintf("after rebalancing (%d live migrations)", moves))

	fmt.Println()
	for _, d := range c.Deployments() {
		tk := d.Tasks()[0]
		st := tk.Stats()
		fmt.Printf("%-8s on %-6s frames=%4d missed=%2d (%.2f%%) migrations=%d blackout=%v\n",
			d.Spec.Name, c.Hosts[d.HostIndex()].Name, st.Released, st.Missed, 100*st.MissRatio(),
			d.Migrations, d.BlackoutTotal)
	}
	fmt.Println("\nmigration downtime shows up as a handful of missed frames on the")
	fmt.Println("moved VMs — the overhead §6 says must be properly accounted for.")

	// Act three: a host crashes. Its VMs go dark for the recovery delay,
	// then restart on the survivor (placement permitting).
	victim := c.Hosts[0]
	affected := c.FailHost(victim)
	fmt.Printf("\n%s CRASHED — %d VMs dark for %v, recovering on the survivor\n",
		victim.Name, len(affected), cfg.RecoveryDelay)
	c.Run(5 * rtvirt.Second)
	show("after failover")
	for _, d := range c.Deployments() {
		tk := d.Tasks()[0]
		st := tk.Stats()
		state := "on " + c.Hosts[d.HostIndex()].Name
		if d.Pending() {
			state = "PENDING (no capacity)"
		}
		fmt.Printf("%-8s %-22s frames=%4d missed=%3d failovers=%d blackout=%v\n",
			d.Spec.Name, state, st.Released, st.Missed, d.Failovers, d.BlackoutTotal)
	}
	fmt.Println("\nthe crash costs each affected VM its in-flight frame (abandoned →")
	fmt.Println("missed) plus ≈recovery-delay of frames never released while dark;")
	fmt.Println("once re-placed, admission control again guarantees every deadline.")
}
