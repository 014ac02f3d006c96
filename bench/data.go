package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"

	"repro/internal/model"
	"repro/internal/testdata"
)

// sizes freezes every size, rate and count of the four workloads. The
// committed numbers are `full`; the smoke test runs `toy`. They live
// here and in README.md because BENCHMARK.json has no key for them.
type sizes struct {
	// point_warm: data_pages <= pool_pages/4, so every fetch hits.
	PointDepts, PointPool, PointTraceOps int
	// scan_cold: data_pages >= 8 x pool_pages, so every scan evicts.
	ScanDepts, ScanPool, ScanTraceCycles int
	// write_durable: small objects, rows >> clients; a harness
	// checkpoint every CkptEvery acknowledged commits.
	WriteDepts, WritePool, WriteTraceOps, WriteFixedOps, CkptEvery int
	// net_mixed: its open loop runs at NetRate requests/s over both
	// connections.
	NetDepts, NetPool, NetTraceOps, NetFixedOps int
	NetRate                                     float64
	// ReopenTail is how many operations of a writing workload are left
	// in the log, past the last checkpoint, for the timed reopens.
	ReopenTail int
	// Parts is how many parts the timed window runs in. After each part
	// come one timed set-up and Reopens timed Close -> Open -> first
	// answer rounds, so a run reports the median of Parts+2 set-ups and
	// of Parts x Reopens reopens.
	Parts, Reopens int
	// ProbeN is how many sampled keys each direct layer probe times.
	ProbeN int
}

var full = sizes{
	PointDepts: 500, PointPool: 4096, PointTraceOps: 20000,
	ScanDepts: 280, ScanPool: 64, ScanTraceCycles: 8,
	WriteDepts: 120, WritePool: 2048, WriteTraceOps: 600, WriteFixedOps: 2000, CkptEvery: 500,
	NetDepts: 48, NetPool: 2048, NetTraceOps: 2000, NetFixedOps: 2000, NetRate: 800,
	ReopenTail: 100, Parts: 10, Reopens: 5, ProbeN: 200,
}

var toy = sizes{
	PointDepts: 40, PointPool: 512, PointTraceOps: 300,
	ScanDepts: 24, ScanPool: 8, ScanTraceCycles: 1,
	WriteDepts: 16, WritePool: 256, WriteTraceOps: 60, WriteFixedOps: 60, CkptEvery: 25,
	NetDepts: 24, NetPool: 256, NetTraceOps: 100, NetFixedOps: 60, NetRate: 200,
	ReopenTail: 5, Parts: 2, Reopens: 1, ProbeN: 10,
}

// Department shapes. point_warm, scan_cold and net_mixed read the
// paper's Table 5 shape scaled up; write_durable starts from small
// objects because every DML statement scans the table.
func readShape(depts int, seed int64) testdata.GenConfig {
	return testdata.GenConfig{Departments: depts, ProjsPerDept: 8, MembersPerProj: 12, EquipPerDept: 4, Seed: seed, ConsultantEvery: 50}
}

func smallShape(depts int, seed int64) testdata.GenConfig {
	return testdata.GenConfig{Departments: depts, ProjsPerDept: 3, MembersPerProj: 4, EquipPerDept: 2, Seed: seed, ConsultantEvery: 50}
}

// deck deals operation kinds in exact proportions: it holds shares[k]
// cards of kind k, is shuffled by the client's seeded stream and
// reshuffled whenever it runs out. Over whole decks the mix is exact,
// so two seeds differ in the order of operations, not in how many of
// each kind they ran — one source of run-to-run spread less.
type deck struct {
	rng   *rand.Rand
	cards []int
	next  int
}

func newDeck(rng *rand.Rand, shares []int) *deck {
	d := &deck{rng: rng}
	for kind, n := range shares {
		for i := 0; i < n; i++ {
			d.cards = append(d.cards, kind)
		}
	}
	d.next = len(d.cards)
	return d
}

func (d *deck) draw() int {
	if d.next == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.next = 0
	}
	d.next++
	return d.cards[d.next-1]
}

// Attribute positions of DEPARTMENTS (testdata.DepartmentsType).
const (
	aDNO = iota
	aMGRNO
	aPROJECTS
	aBUDGET
	aEQUIP
)

// expect is what the oracle knows about a statement's answer: the row
// count and an order-insensitive hash over every value.
type expect struct {
	rows int
	hash uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	return h ^ (h >> 29)
}

// hashTuple hashes a tuple without allocating: atoms by kind and
// value, ordered tables by sequence, relations by the sum of their
// members' hashes, so stored order does not matter.
func hashTuple(t model.Tuple) uint64 {
	h := uint64(fnvOffset)
	for _, v := range t {
		switch x := v.(type) {
		case model.Int:
			h = mix(h, uint64(x)^0x11)
		case model.Str:
			s := uint64(fnvOffset)
			for i := 0; i < len(x); i++ {
				s = (s ^ uint64(x[i])) * fnvPrime
			}
			h = mix(h, s^0x22)
		case model.Float:
			h = mix(h, math.Float64bits(float64(x))^0x33)
		case model.Bool:
			if x {
				h = mix(h, 0x45)
			} else {
				h = mix(h, 0x44)
			}
		case model.Time:
			h = mix(h, uint64(x)^0x55)
		case *model.Table:
			th := uint64(len(x.Tuples))
			for _, m := range x.Tuples {
				if x.Ordered {
					th = mix(th, hashTuple(m))
				} else {
					th += hashTuple(m) | 1
				}
			}
			h = mix(h, th^0x66)
		default: // Null
			h = mix(h, 0x77)
		}
	}
	return h
}

// add folds one result row into the expectation.
func (e *expect) add(t model.Tuple) {
	e.rows++
	e.hash += hashTuple(t)
}

// rowSource is the cursor shape shared by engine.Rows and aimnet.Rows.
type rowSource interface {
	Next() bool
	Tuple() model.Tuple
	Err() error
	Close() error
}

// budgetBytes is what one overwritten BUDGET counts as user data.
const budgetBytes = 8

// tupleBytes is the size of a tuple's user data in the storage codec:
// its encoded atoms and those of every tuple nested in it, no
// directories, no page overhead.
func tupleBytes(tt *model.TableType, tup model.Tuple) int64 {
	enc, err := model.EncodeAtoms(model.Atoms(tt, tup))
	if err != nil {
		panic(fmt.Sprintf("bench: encoding generated atoms: %v", err))
	}
	n := int64(len(enc))
	subs := model.Subtables(tt, tup)
	for i, ai := range tt.TableIndexes() {
		if subs[i] != nil {
			for _, m := range subs[i].Tuples {
				n += tupleBytes(tt.Attrs[ai].Type.Table, m)
			}
		}
	}
	return n
}

// literal renders a tuple as an NF² SQL literal: (1, 'x', {(..)}).
func literal(b *strings.Builder, t model.Tuple) {
	b.WriteByte('(')
	for i, v := range t {
		if i > 0 {
			b.WriteString(", ")
		}
		switch x := v.(type) {
		case model.Int:
			fmt.Fprintf(b, "%d", int64(x))
		case model.Str:
			b.WriteByte('\'')
			b.WriteString(string(x))
			b.WriteByte('\'')
		case *model.Table:
			b.WriteByte('{')
			for j, m := range x.Tuples {
				if j > 0 {
					b.WriteString(", ")
				}
				literal(b, m)
			}
			b.WriteByte('}')
		default:
			panic(fmt.Sprintf("bench: no literal form for %T", v))
		}
	}
	b.WriteByte(')')
}

var (
	genFunctions = []string{"Leader", "Staff", "Secretary", "Engineer", "Analyst"}
	genNames     = []string{"CGA", "HEAP", "TEXT", "NEBS", "AIM", "CAD", "CAM", "CIM", "VLSI", "ROBOT"}
	genEquip     = []string{"3278", "3270", "3179", "PC", "PC/AT", "PC/XT", "4361"}
)

// newDepartment generates one small department for write_durable's
// whole-object inserts. Project and employee numbers derive from the
// department number, so they are unique across clients.
func newDepartment(rng *rand.Rand, dno int64) model.Tuple {
	projs := model.NewRelation()
	for p := int64(0); p < 2; p++ {
		members := model.NewRelation()
		for m := int64(0); m < 2+p; m++ {
			members.Append(model.Tuple{model.Int(dno*100 + p*10 + m), model.Str(genFunctions[rng.Intn(len(genFunctions))])})
		}
		pno := dno*10 + p
		projs.Append(model.Tuple{model.Int(pno), model.Str(fmt.Sprintf("%s-%d", genNames[rng.Intn(len(genNames))], pno)), members})
	}
	equip := model.NewRelation(model.Tuple{model.Int(int64(1 + rng.Intn(5))), model.Str(genEquip[rng.Intn(len(genEquip))])})
	return model.Tuple{model.Int(dno), model.Int(dno*100 + 99), projs, model.Int(int64(100000 + rng.Intn(900000))), equip}
}
