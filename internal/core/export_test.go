package core

import "dsmpm2/internal/madeleine"

// The installer's channel and per-page body, for the handler-thread reference
// in stepinstall_test.go: InstallChannel is the channel pages reach their node
// on, ArrivePage and InstallLocked are the installer's steps before taking the
// entry lock and after charging Costs.Install, and FreePageMsg ends the page's
// record.

func (d *DSM) InstallChannel() madeleine.ChanID        { return d.installCh }
func (d *DSM) ArrivePage(pm *PageMsg, node int) *Entry { return d.arrive(pm, node) }
func (d *DSM) InstallLocked(pm *PageMsg, e *Entry)     { d.install(pm, e) }
func (d *DSM) FreePageMsg(pm *PageMsg)                 { put(&d.recs.pages, pm) }
