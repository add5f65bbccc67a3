package core

import (
	"fmt"

	"dsmpm2/internal/memory"
	"dsmpm2/internal/pm2"
	"dsmpm2/internal/sim"
)

// ProtoID identifies a registered protocol, as returned by
// dsm_create_protocol in the original API.
type ProtoID int

// Fault is the context handed to read/write fault handlers: the faulting
// thread, where it faulted, and the page-table entry on the faulting node.
// Like every record in this file it is pooled and valid until the routine it
// was passed to returns (see records.go); one a protocol builds for itself
// (java_ic's direct fetch) is simply never pooled.
type Fault struct {
	DSM    *DSM
	Thread *pm2.Thread
	Node   int // node the thread was on when it faulted
	Addr   Addr
	Page   Page
	Write  bool
	Entry  *Entry
	Timing *FaultTiming

	// entryLocked records that the fault handler returned while still
	// holding the entry lock, so the retried access completes before any
	// competing server can steal the page (anti-livelock handoff). Set by
	// KeepEntryLocked; consumed by the core's fault loop.
	entryLocked bool
}

// KeepEntryLocked tells the core that the handler returns with f.Entry's
// lock held; the core releases it immediately before retrying the faulting
// access. Because the faulting thread keeps the simulation token from
// handler return through the retried memory operation (nothing in between
// blocks), the retry is guaranteed to happen before any competing protocol
// server runs.
func (f *Fault) KeepEntryLocked() { f.entryLocked = true }

// Request is the context handed to read/write servers: a remote node asked
// this node for page access. Thread is the server thread processing the
// request on the receiving node. The record is also the RPC argument: the
// requester fills Page, From, Write, Seq and Timing, the service handler
// completes DSM, Thread and Node.
type Request struct {
	DSM    *DSM
	Thread *pm2.Thread
	Node   int // node processing the request
	Page   Page
	From   int // requesting node
	Write  bool
	// Seq is the requester's fetch sequence number; SendPage echoes it so
	// retried fetches (recovery mode) can discard superseded responses.
	Seq    uint64
	Timing *FaultTiming
	sentAt sim.Time
}

// Invalidate is the context handed to invalidation servers, and the RPC
// argument that asks for one. The service handler acknowledges on ack (nil
// for unacknowledged invalidations) after the hook returns.
type Invalidate struct {
	DSM      *DSM
	Thread   *pm2.Thread
	Node     int
	Page     Page
	From     int // node that sent the invalidation
	NewOwner int // forwarding hint for dynamic managers
	ack      *sim.Chan
}

// PageMsg is the context handed to receive-page servers, and the RPC
// argument carrying the copy: a page copy has arrived. Access is the right
// granted with the copy, Owner the new probable owner, Copyset the
// transferred copyset (ownership moves).
type PageMsg struct {
	DSM     *DSM
	Thread  *pm2.Thread
	Node    int
	Page    Page
	From    int
	Data    []byte
	Access  memory.Access
	Owner   int
	Ownship bool // ownership transferred with the page
	Copyset []int
	Seq     uint64 // fetch sequence this page answers (see Request.Seq)
	Timing  *FaultTiming
	sentAt  sim.Time
	link    string // profile name of the link carrying the transfer
}

// CopyArg implements pm2.Copier: a lossy link's duplicate of a page message
// carries its own pooled wire buffer, because whoever receives a page
// message returns its buffer to a pool — exactly once per message.
func (pm *PageMsg) CopyArg() interface{} {
	c := *pm
	c.Data = pm.DSM.bufs.Get()
	copy(c.Data, pm.Data)
	return &c
}

// SyncEvent is the context handed to lock acquire/release hooks, and the
// argument of the lock RPCs (the manager reads Lock and Node). For barrier
// events, Barrier is true and Lock is the barrier's id.
type SyncEvent struct {
	DSM     *DSM
	Thread  *pm2.Thread
	Node    int
	Lock    int
	Barrier bool
}

// Protocol is the policy layer's contract: the 8 actions of the paper's
// Table 1. The generic core invokes these automatically; a protocol
// implementation composes them from the toolbox routines in this package.
//
// The record each routine receives belongs to the core, which recycles it: it
// is valid until that routine returns, so a routine may block on it for as
// long as it likes but must not store it, or anything else that points at it.
type Protocol interface {
	// Name returns the protocol's identifier, e.g. "li_hudak".
	Name() string

	// ReadFaultHandler is called on a read page fault.
	ReadFaultHandler(f *Fault)
	// WriteFaultHandler is called on a write page fault.
	WriteFaultHandler(f *Fault)
	// ReadServer is called on receiving a request for read access.
	ReadServer(r *Request)
	// WriteServer is called on receiving a request for write access.
	WriteServer(r *Request)
	// InvalidateServer is called on receiving a request for invalidation.
	InvalidateServer(iv *Invalidate)
	// ReceivePageServer is called on receiving a page.
	ReceivePageServer(pm *PageMsg)
	// LockAcquire is called after having acquired a lock.
	LockAcquire(s *SyncEvent)
	// LockRelease is called before releasing a lock.
	LockRelease(s *SyncEvent)
}

// PageInitializer is an optional extension interface: protocols that need
// non-default initial page state implement it and the core invokes it for
// every page at allocation time. hbrc_mw, for instance, write-protects pages
// on their home node so that home-side writes are detected and propagated at
// release like everyone else's.
type PageInitializer interface {
	InitPage(pg Page, home int)
}

// DiffServer is an optional extension interface for home-based protocols
// that receive diff messages (hbrc_mw, java_ic, java_pf). The core routes
// arriving diffs to it.
type DiffServer interface {
	DiffServer(dm *DiffMsg)
}

// Recoverable is an optional extension interface: protocols holding private
// per-node state (dirty-page maps, fault counters) implement it so the
// recovery manager can discard a crashed node's state. OnNodeCrash runs when
// the node fail-stops, OnNodeRestart after the core has rebuilt the node's
// page table for its cold restart.
type Recoverable interface {
	OnNodeCrash(node int)
	OnNodeRestart(node int)
}

// ObjectProtocol is an optional extension interface for protocols that
// implement the Hyperion-style get/put access primitives, bypassing page
// faults (Section 2.3: "DSM-PM2 thus provides a way to bypass the page fault
// detection and to directly activate the protocol actions").
type ObjectProtocol interface {
	Get(a *ObjAccess)
	Put(a *ObjAccess)
}

// DiffMsg is the context handed to DiffServer, and the RPC argument carrying
// the diffs: a batch of page diffs arrived from a writer node. The service
// handler signals reply, if non-nil, after the diffs are applied (the sender
// blocks on it for release semantics).
type DiffMsg struct {
	DSM    *DSM
	Thread *pm2.Thread
	Node   int
	From   int
	Diffs  []*memory.Diff
	// Noticed marks diffs whose invalidations are deferred to the writer's
	// barrier write notices: the home applies them but must not eagerly
	// invalidate third-party copies — those drop themselves when the
	// barrier distributes the notices (see outbox.go).
	Noticed bool
	reply   *sim.Chan
	one     [1]*memory.Diff // backs Diffs for an outbox flush's single diff
}

// ObjAccess is the context for object get/put primitives.
type ObjAccess struct {
	DSM    *DSM
	Thread *pm2.Thread
	Addr   Addr
	Buf    []byte // read destination or write source
	Write  bool
}

// Factory builds a protocol instance bound to a DSM. Each DSM gets fresh
// instances so protocol-private state never leaks across machines.
type Factory func(d *DSM) Protocol

// Registry maps protocol ids to factories: the policy layer's catalogue.
// Built-in protocols are pre-registered; users add theirs with Register,
// exactly like dsm_create_protocol.
type Registry struct {
	names     []string
	factories []Factory
	index     map[string]ProtoID // name -> id, kept in sync with names
}

// NewRegistry returns an empty protocol registry.
func NewRegistry() *Registry { return &Registry{index: make(map[string]ProtoID)} }

// Register adds a protocol under name and returns its id. Registering a
// duplicate name panics: protocol identifiers are global constants in the
// original API.
func (r *Registry) Register(name string, f Factory) ProtoID {
	if r.index == nil {
		r.index = make(map[string]ProtoID)
	}
	if _, dup := r.index[name]; dup {
		panic(fmt.Sprintf("core: protocol %q registered twice", name))
	}
	id := ProtoID(len(r.names))
	r.names = append(r.names, name)
	r.factories = append(r.factories, f)
	r.index[name] = id
	return id
}

// Lookup returns the id registered under name.
func (r *Registry) Lookup(name string) (ProtoID, bool) {
	id, ok := r.index[name]
	if !ok {
		return -1, false
	}
	return id, true
}

// Name returns the name registered for id.
func (r *Registry) Name(id ProtoID) string {
	if int(id) < 0 || int(id) >= len(r.names) {
		return fmt.Sprintf("proto#%d", id)
	}
	return r.names[id]
}

// Names lists all registered protocol names in registration order.
func (r *Registry) Names() []string { return append([]string(nil), r.names...) }

// RegistryName resolves a protocol id to its registered name.
func (d *DSM) RegistryName(id ProtoID) string { return d.registry.Name(id) }

// Registry exposes the DSM's protocol registry.
func (d *DSM) Registry() *Registry { return d.registry }

// Len reports the number of registered protocols.
func (r *Registry) Len() int { return len(r.names) }

func (r *Registry) newInstance(id ProtoID, d *DSM) Protocol {
	if int(id) < 0 || int(id) >= len(r.factories) {
		panic(fmt.Sprintf("core: unknown protocol id %d", id))
	}
	return r.factories[id](d)
}

// Hooks assembles a protocol from 8 free functions, for users who build new
// protocols ad hoc rather than defining a type (the dsm_create_protocol
// style shown in Section 2.3). Nil hooks are no-ops. As for any Protocol, the
// record a hook receives is valid until the hook returns.
type Hooks struct {
	ProtoName     string
	OnReadFault   func(*Fault)
	OnWriteFault  func(*Fault)
	OnReadServer  func(*Request)
	OnWriteServer func(*Request)
	OnInvalidate  func(*Invalidate)
	OnReceivePage func(*PageMsg)
	OnLockAcquire func(*SyncEvent)
	OnLockRelease func(*SyncEvent)

	// OnDiffServer extends the 8 actions for hook-built home-based
	// protocols that receive diffs. Leaving it nil while sending diffs to
	// pages of this protocol is a protocol bug and panics.
	OnDiffServer func(*DiffMsg)
}

// Name implements Protocol.
func (h *Hooks) Name() string { return h.ProtoName }

// ReadFaultHandler implements Protocol.
func (h *Hooks) ReadFaultHandler(f *Fault) {
	if h.OnReadFault != nil {
		h.OnReadFault(f)
	}
}

// WriteFaultHandler implements Protocol.
func (h *Hooks) WriteFaultHandler(f *Fault) {
	if h.OnWriteFault != nil {
		h.OnWriteFault(f)
	}
}

// ReadServer implements Protocol.
func (h *Hooks) ReadServer(r *Request) {
	if h.OnReadServer != nil {
		h.OnReadServer(r)
	}
}

// WriteServer implements Protocol.
func (h *Hooks) WriteServer(r *Request) {
	if h.OnWriteServer != nil {
		h.OnWriteServer(r)
	}
}

// InvalidateServer implements Protocol.
func (h *Hooks) InvalidateServer(iv *Invalidate) {
	if h.OnInvalidate != nil {
		h.OnInvalidate(iv)
	}
}

// ReceivePageServer implements Protocol.
func (h *Hooks) ReceivePageServer(pm *PageMsg) {
	if h.OnReceivePage != nil {
		h.OnReceivePage(pm)
	}
}

// LockAcquire implements Protocol.
func (h *Hooks) LockAcquire(s *SyncEvent) {
	if h.OnLockAcquire != nil {
		h.OnLockAcquire(s)
	}
}

// LockRelease implements Protocol.
func (h *Hooks) LockRelease(s *SyncEvent) {
	if h.OnLockRelease != nil {
		h.OnLockRelease(s)
	}
}

// DiffServer implements the optional DiffServer extension.
func (h *Hooks) DiffServer(dm *DiffMsg) {
	if h.OnDiffServer == nil {
		panic(fmt.Sprintf("core: protocol %q received diffs but defines no OnDiffServer", h.ProtoName))
	}
	h.OnDiffServer(dm)
}

// CreateProtocol registers a hook-built protocol on the DSM's registry and
// returns its id, mirroring dsm_create_protocol. The protocol can then be
// set as default or attached to allocations like any built-in.
func (d *DSM) CreateProtocol(h *Hooks) ProtoID {
	return d.registry.Register(h.ProtoName, func(*DSM) Protocol { return h })
}
