package main

import (
	"fmt"

	"ibasec"
)

// workload is one benchmark input set: a simulator configuration derived
// from the seed, the check that proves the run exercised the layers the
// workload exists to stress, and the packet shape its micro-timings use.
type workload struct {
	name string
	// subSeeds is how many seeds one set simulates; the simulated
	// statistics are their means, which keeps them steady across input
	// seeds.
	subSeeds int
	// config returns the run configuration for seed. Every workload is a
	// 4x4 mesh with the Table 1 link parameters.
	config func(seed int64) ibasec.Config
	// engaged returns an error when the run bypassed the mechanism the
	// workload is meant to measure, so no workload silently measures
	// nothing.
	engaged func(cl *ibasec.Cluster, res *ibasec.Results) error
	// shape is the packet the micro-timings seal, verify and parse.
	shape packetShape
}

// packetShape describes the workload's typical packet on the wire.
type packetShape struct {
	payload int
	auth    bool // ICRC field carries a UMAC-32 tag
	mad     bool // VL15 management datagram to QP0
}

var workloads = []workload{
	{
		// A Figure 5 point: DPT filtering against a 1%-duty flood on the
		// best-effort VL. Byte-bound data path, no auth, no control plane.
		// Load 0.4, the figure's lowest: from 0.5 up, some partition and
		// attacker layouts saturate the mesh and others do not, and the
		// queuing delay then spans two orders of magnitude across seeds.
		name:     "fig5_dpt",
		subSeeds: 32,
		config: func(seed int64) ibasec.Config {
			cfg := base(seed)
			cfg.Enforcement = ibasec.DPT
			cfg.Attackers = 4
			cfg.AttackDuty = 0.01
			cfg.AttackCycle = cfg.Duration / 4
			cfg.AttackClass = ibasec.ClassBestEffort
			cfg.BestEffortLoad = 0.4
			cfg.MsgSize = 1024
			return cfg
		},
		engaged: func(_ *ibasec.Cluster, res *ibasec.Results) error {
			if res.FilterLookups == 0 || res.FilterDropped == 0 {
				return fmt.Errorf("DPT never filtered: lookups=%d dropped=%d", res.FilterLookups, res.FilterDropped)
			}
			return nil
		},
		shape: packetShape{payload: 1024},
	},
	{
		// The Figure 6 shape: QP-level UMAC-32 tags on small messages.
		// Per-packet cost dominates; switch filtering is off.
		name:     "auth_small",
		subSeeds: 6,
		config: func(seed int64) ibasec.Config {
			cfg := base(seed)
			cfg.Auth = ibasec.AuthConfig{Enabled: true, FuncID: ibasec.AuthUMAC32, Level: ibasec.QPLevel}
			cfg.BestEffortLoad = 0.3
			cfg.MsgSize = 128
			return cfg
		},
		engaged: func(_ *ibasec.Cluster, res *ibasec.Results) error {
			if res.PacketsSigned == 0 || res.AuthFail != 0 {
				return fmt.Errorf("auth not clean: signed=%d auth_fail=%d", res.PacketsSigned, res.AuthFail)
			}
			return nil
		},
		shape: packetShape{payload: 128, auth: true},
	},
	{
		// The control plane under churn: every management loop armed at
		// once, two link outages and a master-SM kill mid-run.
		name:     "mgmt_churn",
		subSeeds: 32,
		config: func(seed int64) ibasec.Config {
			cfg := base(seed)
			cfg.Enforcement = ibasec.SIF
			cfg.Auth = ibasec.AuthConfig{Enabled: true, FuncID: ibasec.AuthUMAC32, Level: ibasec.PartitionLevel}
			cfg.BestEffortLoad = 0.1
			// One bursty attacker keeps the SIF trap/registration path
			// busy: its quiet gaps outlast two auto-disable periods.
			cfg.Attackers = 1
			cfg.AttackDuty = 0.2
			cfg.AttackCycle = cfg.Duration / 8
			cfg.AttackClass = ibasec.ClassBestEffort
			cfg.SM.AutoDisablePeriod = cfg.Duration / 32
			// Healed routes are shortest-path; HOQ ageing keeps a
			// transient credit cycle from holding buffers to the end.
			p := *cfg.Params
			p.HOQLife = 100 * ibasec.Microsecond
			cfg.Params = &p
			cfg.ResweepPeriod = 200 * ibasec.Microsecond
			cfg.HA = ibasec.HAParams{Standbys: 2, Heartbeat: 50 * ibasec.Microsecond}
			cfg.Rekey = ibasec.RekeyParams{
				Period:            500 * ibasec.Microsecond,
				Grace:             500 * ibasec.Microsecond / 3,
				DistributionDelay: 2 * ibasec.Microsecond,
			}
			cfg.Policy = ibasec.PolicyParams{Enabled: true, AuditPeriod: 100 * ibasec.Microsecond, Repair: true}
			cfg.Health = ibasec.HealthParams{
				SweepPeriod:     40 * ibasec.Microsecond,
				Alpha:           0.5,
				QuarantineScore: 1.0,
				TrapThreshold:   6,
				Damping:         true,
			}
			plan := ibasec.ChaosPlan(seed, cfg.MeshW, cfg.MeshH, 2, cfg.Warmup, cfg.Duration*3/4)
			plan.SMKills = []ibasec.SMKill{{At: cfg.Duration / 3}}
			cfg.FaultPlan = plan
			return cfg
		},
		engaged: func(cl *ibasec.Cluster, res *ibasec.Results) error {
			takeovers := 0
			if cl.HA != nil {
				takeovers = len(cl.HA.Events)
			}
			if res.AuditMADs == 0 || res.HealthSweepMADs == 0 || takeovers == 0 {
				return fmt.Errorf("control plane idle: audit=%d health=%d takeovers=%d",
					res.AuditMADs, res.HealthSweepMADs, takeovers)
			}
			return nil
		},
		shape: packetShape{payload: 256, mad: true},
	},
}

// base is the Table 1 testbed with best-effort traffic only, simulated
// for 2.5 ms with a 10% warmup. Runs are short so that a set can average
// many sub-seeds: layout, not run length, dominates the spread of the
// simulated statistics across seeds.
func base(seed int64) ibasec.Config {
	cfg := ibasec.DefaultConfig()
	cfg.Seed = seed
	cfg.RealtimeLoad = 0
	cfg.Duration = 2500 * ibasec.Microsecond
	cfg.Warmup = cfg.Duration / 10
	return cfg
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
