// Package pram implements a synchronous PRAM (parallel random access
// machine) simulator with selectable memory-access discipline — EREW,
// CREW, or CROW (concurrent read, owner write) — plus cost accounting and
// Brent-style processor virtualisation.
//
// The paper observes that the GCA "resembles the concurrent read owner
// write (CROW) PRAM model, where each processor may read any cell, whereas
// each cell may only be written by a dedicated processor". This simulator
// is the substrate on which the reference algorithm (Listing 1) runs, and
// its access checker proves the paper's claim that Hirschberg's algorithm
// needs only a CROW PRAM: every write in the reference implementation is
// performed by the owning processor, and any violation fails the step.
package pram

import (
	"fmt"
	"runtime"

	"gcacc/internal/par"
)

// Value is a shared-memory word.
type Value int64

// Inf is the ∞ sentinel used by the min reductions.
const Inf Value = 1<<63 - 1

// Mode selects the memory-access discipline enforced by the machine.
type Mode int

const (
	// CREW permits concurrent reads; each cell may be written by at most
	// one processor per step.
	CREW Mode = iota
	// EREW additionally forbids concurrent reads of the same cell.
	EREW
	// CROW permits concurrent reads; each cell may be written only by its
	// statically assigned owner processor (and never concurrently).
	CROW
	// CRCWCommon permits concurrent writes when every writer stores the
	// same value; differing concurrent writes are an error.
	CRCWCommon
	// CRCWPriority permits arbitrary concurrent writes; the processor
	// with the lowest index wins. This is the deterministic refinement of
	// the textbook Arbitrary-CRCW model.
	CRCWPriority
)

// String returns the conventional acronym.
func (m Mode) String() string {
	switch m {
	case CREW:
		return "CREW"
	case EREW:
		return "EREW"
	case CROW:
		return "CROW"
	case CRCWCommon:
		return "CRCW-Common"
	case CRCWPriority:
		return "CRCW-Priority"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// Unowned marks a CROW memory cell without an owner; writing it is an
// access violation (read-only memory such as the adjacency matrix).
const Unowned = -1

// Costs accumulates the standard PRAM accounting quantities.
type Costs struct {
	// Steps is the number of synchronous steps executed.
	Steps int
	// Time is the Brent-adjusted time: each step with a processors on a
	// machine with p physical processors costs ⌈a/p⌉ time units. With
	// unlimited physical processors Time equals Steps.
	Time int
	// Work is the total number of processor activations (Σ active).
	Work int64
	// Reads and Writes count shared-memory accesses.
	Reads, Writes int64
	// MaxReadCongestion is the maximum number of reads any single cell
	// received within one step — the PRAM analogue of the paper's δ.
	MaxReadCongestion int
}

// Machine is a synchronous PRAM over a fixed-size shared memory.
//
// One step consists of: every active processor runs the step body, reading
// the memory state committed before the step and buffering its writes;
// then all writes are validated against the access mode and committed
// atomically. Processors are sharded over the shared pool of
// internal/par; results are bit-identical for every worker count.
type Machine struct {
	mode     Mode
	mem      []Value
	owner    []int32 // CROW owner per cell; Unowned = read-only
	physical int     // physical processors for Brent time accounting
	workers  int

	costs Costs

	// Per-step conflict detection state.
	writeStamp []int64
	readStamp  []int64
	readCount  []int32
	stepID     int64

	workerState []workerBuffers
	group       par.Group
	readLog     logArena[int32]
	writeLog    logArena[writeOp]

	// The step being run, published before its shards fan out: shard w
	// runs processors [w·chunk, min((w+1)·chunk, active)).
	body          func(p *Proc)
	active, chunk int
}

type workerBuffers struct {
	proc   Proc // the worker's processor handle, reused by every step
	writes []writeOp
	reads  []int32 // addresses read (EREW / congestion tracking)
	err    error
	_      [64]byte // pad to keep workers off each other's cache lines
}

type writeOp struct {
	addr int32
	proc int32
	val  Value
}

// Option configures a Machine.
type Option func(*Machine)

// WithPhysicalProcessors sets the physical processor count p used for
// Brent time accounting (Costs.Time). Zero or negative means "as many as
// active" (Time == Steps).
func WithPhysicalProcessors(p int) Option {
	return func(m *Machine) { m.physical = p }
}

// WithSimWorkers sets the number of shards a step's processors are split
// into.
func WithSimWorkers(w int) Option {
	return func(m *Machine) { m.workers = w }
}

// New returns a machine with memSize cells of zeroed shared memory.
func New(mode Mode, memSize int, opts ...Option) *Machine {
	if memSize < 0 {
		panic(fmt.Sprintf("pram: negative memory size %d", memSize))
	}
	m := &Machine{
		mode:       mode,
		mem:        make([]Value, memSize),
		writeStamp: make([]int64, memSize),
		readStamp:  make([]int64, memSize),
		readCount:  make([]int32, memSize),
	}
	if mode == CROW {
		m.owner = make([]int32, memSize)
		for i := range m.owner {
			m.owner[i] = Unowned
		}
	}
	for _, o := range opts {
		o(m)
	}
	if m.workers < 1 {
		m.workers = runtime.GOMAXPROCS(0)
	}
	m.workerState = make([]workerBuffers, m.workers)
	for w := range m.workerState {
		m.workerState[w].proc = Proc{w: &m.workerState[w], m: m}
	}
	return m
}

// Costs returns the accounting so far.
func (m *Machine) Costs() Costs { return m.costs }

// Load returns the committed value of a memory cell (host access, not
// counted as a PRAM read).
func (m *Machine) Load(addr int) Value {
	m.checkAddr(addr)
	return m.mem[addr]
}

// Store sets a memory cell from the host (initialisation; not a PRAM
// write).
func (m *Machine) Store(addr int, v Value) {
	m.checkAddr(addr)
	m.mem[addr] = v
}

// SetOwner assigns the CROW owner of a cell. It panics unless the machine
// is in CROW mode.
func (m *Machine) SetOwner(addr int, proc int) {
	if m.mode != CROW {
		panic("pram: SetOwner on a non-CROW machine")
	}
	m.checkAddr(addr)
	if proc < Unowned {
		panic(fmt.Sprintf("pram: invalid owner %d", proc))
	}
	m.owner[addr] = int32(proc)
}

// Proc is the per-processor environment handed to a step body. It is only
// valid for the duration of the body call.
type Proc struct {
	// ID is the processor index within the step, 0 … active-1.
	ID int
	w  *workerBuffers
	m  *Machine
}

// Read returns the value a shared-memory cell held when the step began.
func (p *Proc) Read(addr int) Value {
	if addr < 0 || addr >= len(p.m.mem) {
		p.fail(fmt.Errorf("pram: processor %d read out of range address %d", p.ID, addr))
		return 0
	}
	if len(p.w.reads) == cap(p.w.reads) {
		p.w.reads = p.m.readLog.grow(p.w.reads)
	}
	p.w.reads = append(p.w.reads, int32(addr))
	return p.m.mem[addr]
}

// Write buffers a write that commits when the step ends.
func (p *Proc) Write(addr int, v Value) {
	if addr < 0 || addr >= len(p.m.mem) {
		p.fail(fmt.Errorf("pram: processor %d wrote out of range address %d", p.ID, addr))
		return
	}
	if len(p.w.writes) == cap(p.w.writes) {
		p.w.writes = p.m.writeLog.grow(p.w.writes)
	}
	p.w.writes = append(p.w.writes, writeOp{addr: int32(addr), proc: int32(p.ID), val: v})
}

func (p *Proc) fail(err error) {
	if p.w.err == nil {
		p.w.err = err
	}
}

// Step runs one synchronous step with processors 0 … active-1 executing
// body. It returns an access-mode violation or addressing error, in which
// case no writes are committed.
func (m *Machine) Step(active int, body func(p *Proc)) error {
	if active < 0 {
		return fmt.Errorf("pram: negative processor count %d", active)
	}
	m.stepID++
	for w := range m.workerState {
		m.workerState[w].writes = m.workerState[w].writes[:0]
		m.workerState[w].reads = m.workerState[w].reads[:0]
		m.workerState[w].err = nil
	}

	workers := m.workers
	if workers > active {
		workers = active
	}
	m.body, m.active, m.chunk = body, active, active
	if workers > 1 && active >= 64 {
		m.chunk = (active + workers - 1) / workers
	}
	if active > 0 {
		m.group.Run((*stepJob)(m), (active+m.chunk-1)/m.chunk)
	}
	m.body = nil

	// Deterministic error selection: first worker (= lowest processor
	// range) wins.
	for w := range m.workerState {
		if err := m.workerState[w].err; err != nil {
			return err
		}
	}

	// Validate reads (EREW exclusivity; congestion accounting for all
	// modes).
	stepReads := 0
	maxCongestion := int32(0)
	for w := range m.workerState {
		for _, addr := range m.workerState[w].reads {
			if m.readStamp[addr] != m.stepID {
				m.readStamp[addr] = m.stepID
				m.readCount[addr] = 0
			}
			m.readCount[addr]++
			if m.readCount[addr] > maxCongestion {
				maxCongestion = m.readCount[addr]
			}
			stepReads++
		}
	}
	if m.mode == EREW && maxCongestion > 1 {
		for w := range m.workerState {
			for _, addr := range m.workerState[w].reads {
				if m.readCount[addr] > 1 && m.readStamp[addr] == m.stepID {
					return fmt.Errorf("pram: EREW violation: address %d read %d times in one step", addr, m.readCount[addr])
				}
			}
		}
	}

	// Validate and commit writes in processor order (workers cover
	// ascending processor ranges and buffer writes in order, so this walk
	// is globally processor-ordered — which makes CRCW-Priority exact).
	stepWrites := 0
	for w := range m.workerState {
		for _, op := range m.workerState[w].writes {
			if m.writeStamp[op.addr] == m.stepID {
				switch m.mode {
				case CRCWPriority:
					// An earlier (lower-index) processor already won.
					continue
				case CRCWCommon:
					if m.mem[op.addr] != op.val {
						return fmt.Errorf("pram: CRCW-Common violation: address %d written with differing values in one step", op.addr)
					}
					continue
				default:
					return fmt.Errorf("pram: write conflict: address %d written by multiple processors in one step (%s mode)", op.addr, m.mode)
				}
			}
			m.writeStamp[op.addr] = m.stepID
			if m.mode == CROW {
				if own := m.owner[op.addr]; own != op.proc {
					if own == Unowned {
						return fmt.Errorf("pram: CROW violation: processor %d wrote unowned (read-only) address %d", op.proc, op.addr)
					}
					return fmt.Errorf("pram: CROW violation: processor %d wrote address %d owned by processor %d", op.proc, op.addr, own)
				}
			}
			m.mem[op.addr] = op.val
			stepWrites++
		}
	}

	m.costs.Steps++
	m.costs.Work += int64(active)
	m.costs.Reads += int64(stepReads)
	m.costs.Writes += int64(stepWrites)
	if int(maxCongestion) > m.costs.MaxReadCongestion {
		m.costs.MaxReadCongestion = int(maxCongestion)
	}
	if m.physical > 0 {
		m.costs.Time += (active + m.physical - 1) / m.physical
	} else {
		m.costs.Time++
	}
	return nil
}

// stepJob is the Machine as a par.Job, which keeps RunShard off the
// Machine's API.
type stepJob Machine

// RunShard runs shard w's processors of the step Step published.
func (j *stepJob) RunShard(w int) {
	m := (*Machine)(j)
	proc, body := &m.workerState[w].proc, m.body
	for id, hi := w*m.chunk, min((w+1)*m.chunk, m.active); id < hi; id++ {
		proc.ID = id
		body(proc)
	}
}

func (m *Machine) checkAddr(addr int) {
	if addr < 0 || addr >= len(m.mem) {
		panic(fmt.Sprintf("pram: host access to address %d out of range [0,%d)", addr, len(m.mem)))
	}
}
