package core

import (
	"fmt"

	"dsmpm2/internal/pm2"
)

// Object layer: the Hyperion-compatible object model of Section 3.3. Shared
// objects are fixed layouts of 8-byte fields placed inside shared pages;
// each object lives entirely within one page (the runtime allocates objects
// so they never straddle pages) and has the home of its page. Programs
// access fields through the get/put primitives, which protocols may
// implement with inline checks (java_ic) or page faults (java_pf).

// FieldBytes is the size of one object field.
const FieldBytes = 8

// ObjRef is a reference to a shared object.
type ObjRef struct {
	Base   Addr
	Fields int
}

// Field returns the address of field i.
func (o ObjRef) Field(i int) Addr {
	if i < 0 || i >= o.Fields {
		panic(fmt.Sprintf("core: field %d out of range [0,%d)", i, o.Fields))
	}
	return o.Base + Addr(i*FieldBytes)
}

// objectSpace bump-allocates objects inside per-home page areas.
type objectSpace struct {
	d     *DSM
	areas map[areaKey]*objArea
}

type areaKey struct {
	home  int
	proto ProtoID
}

type objArea struct {
	cur  Addr // next free byte, 0 when a fresh chunk is needed
	end  Addr
	attr *Attr
}

// objChunkPages is how many pages each object-area chunk spans.
const objChunkPages = 16

func newObjectSpace(d *DSM) *objectSpace {
	return &objectSpace{d: d, areas: make(map[areaKey]*objArea)}
}

// NewObject allocates a shared object of nFields 8-byte fields, homed on
// node home and managed by protocol proto (-1 for the default). Objects are
// packed into pages homed on their node, so "local objects are intensively
// used" workloads touch mostly local pages, as the paper's map-coloring
// program does.
func (d *DSM) NewObject(home, nFields int, proto ProtoID) (ObjRef, error) {
	if nFields < 1 {
		return ObjRef{}, fmt.Errorf("core: object needs at least one field")
	}
	size := nFields * FieldBytes
	if size > PageSize {
		return ObjRef{}, fmt.Errorf("core: object of %d fields exceeds a page", nFields)
	}
	if proto < 0 {
		proto = d.defProto
	}
	key := areaKey{home: home, proto: proto}
	area := d.objects.areas[key]
	if area == nil {
		area = &objArea{attr: &Attr{Protocol: proto, Home: home}}
		d.objects.areas[key] = area
	}
	// Objects never straddle pages: skip the tail of the current page if
	// the object does not fit.
	if area.cur != 0 {
		pageEnd := (area.cur/PageSize + 1) * PageSize
		if area.cur+Addr(size) > pageEnd {
			area.cur = pageEnd
		}
	}
	if area.cur == 0 || area.cur+Addr(size) > area.end {
		base, err := d.Malloc(home, objChunkPages*PageSize, area.attr)
		if err != nil {
			return ObjRef{}, err
		}
		area.cur = base
		area.end = base + Addr(objChunkPages*PageSize)
	}
	ref := ObjRef{Base: area.cur, Fields: nFields}
	area.cur += Addr(size)
	return ref, nil
}

// MustNewObject is NewObject panicking on error, for setup code.
func (d *DSM) MustNewObject(home, nFields int, proto ProtoID) ObjRef {
	o, err := d.NewObject(home, nFields, proto)
	if err != nil {
		panic(err)
	}
	return o
}

// GetField reads field i of obj as a uint64 through the get primitive.
func (d *DSM) GetField(t *pm2.Thread, obj ObjRef, i int) uint64 {
	return d.GetUint64(t, obj.Field(i))
}

// PutField writes field i of obj as a uint64 through the put primitive.
func (d *DSM) PutField(t *pm2.Thread, obj ObjRef, i int, v uint64) {
	d.PutUint64(t, obj.Field(i), v)
}
