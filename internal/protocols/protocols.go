// Package protocols provides the consistency protocols shipped with DSM-PM2
// (the paper's Table 2), plus the hybrid and adaptive protocols Section 2.3
// sketches as library-composed extensions:
//
//	li_hudak        sequential consistency, MRSW, dynamic distributed manager
//	migrate_thread  sequential consistency via thread migration, fixed manager
//	erc_sw          eager release consistency, MRSW, dynamic manager
//	hbrc_mw         home-based release consistency, MRMW, twins and diffs
//	java_ic         Java consistency, inline locality checks
//	java_pf         Java consistency, page-fault access detection
//	hybrid          page replication on read faults, thread migration on writes
//	adaptive        li_hudak that switches to thread migration on hot pages
//
// Every protocol is just the 8 actions of Table 1, composed from the
// protocol library toolbox in internal/core.
package protocols

import "dsmpm2/internal/core"

// IDs collects the protocol identifiers assigned at registration.
type IDs struct {
	LiHudak       core.ProtoID
	MigrateThread core.ProtoID
	ErcSW         core.ProtoID
	HbrcMW        core.ProtoID
	JavaIC        core.ProtoID
	JavaPF        core.ProtoID
	Hybrid        core.ProtoID
	Adaptive      core.ProtoID
	LiFixed       core.ProtoID
	LiCentral     core.ProtoID
	EntryMW       core.ProtoID
}

// Register installs all built-in protocols on a registry and returns their
// ids. Call once per registry, before creating DSM instances from it.
func Register(reg *core.Registry) IDs {
	return IDs{
		LiHudak:       reg.Register("li_hudak", func(d *core.DSM) core.Protocol { return &liHudak{d: d} }),
		MigrateThread: reg.Register("migrate_thread", func(d *core.DSM) core.Protocol { return &migrateThread{d: d} }),
		ErcSW:         reg.Register("erc_sw", func(d *core.DSM) core.Protocol { return &ercSW{d: d} }),
		HbrcMW:        reg.Register("hbrc_mw", func(d *core.DSM) core.Protocol { return &hbrcMW{d: d} }),
		JavaIC:        reg.Register("java_ic", func(d *core.DSM) core.Protocol { return &java{d: d, inlineCheck: true} }),
		JavaPF:        reg.Register("java_pf", func(d *core.DSM) core.Protocol { return &java{d: d} }),
		Hybrid:        reg.Register("hybrid", func(d *core.DSM) core.Protocol { return &hybrid{d: d} }),
		Adaptive:      reg.Register("adaptive", func(d *core.DSM) core.Protocol { return &adaptive{liHudak{d: d}} }),
		LiFixed:       reg.Register("li_fixed", func(d *core.DSM) core.Protocol { return newLiFixed(d) }),
		LiCentral:     reg.Register("li_central", func(d *core.DSM) core.Protocol { return newLiCentral(d) }),
		EntryMW:       reg.Register("entry_mw", func(d *core.DSM) core.Protocol { return &entryMW{d: d} }),
	}
}

// NewRegistry returns a registry pre-loaded with the built-in protocols and
// their ids.
func NewRegistry() (*core.Registry, IDs) {
	reg := core.NewRegistry()
	ids := Register(reg)
	return reg, ids
}
