package crashsim

import (
	"fmt"
	"math/rand"
	"strings"
)

// Workload is a seeded NF² SQL script: a fixed schema setup followed
// by a generated DML sequence, optionally ending in one transaction
// block. Statements are generated up front from the seed alone, so a
// crashed run and its replay oracle execute byte-identical statements.
type Workload struct {
	// Seed generated the statements and seeds a run's sessions.
	Seed int64
	// Setup creates the tables and indexes: a flat table, one complex
	// table per Mini-Directory layout (SS1..SS3, with unordered and
	// ordered subtables), and a versioned table for ASOF history.
	Setup []string
	// Stmts is the DML sequence.
	Stmts []string
	// Txn, when set, runs last: Begin, these statements, Commit.
	Txn []string
}

// units returns the workload's units in order: every setup and DML
// statement alone, then the transaction block.
func (w *Workload) units() [][]string {
	var us [][]string
	for _, stmt := range append(append([]string{}, w.Setup...), w.Stmts...) {
		us = append(us, []string{stmt})
	}
	if w.Txn != nil {
		us = append(us, w.Txn)
	}
	return us
}

// TxnWorkload is a short seeded DML sequence plus two rows, then a
// transaction block that inserts rows (IDs far above the generator's)
// and updates and deletes rows the sequence committed, so the commit's
// apply phase touches both fresh inserts and buffered updates of
// stored objects.
func TxnWorkload(seed int64) *Workload {
	w := NewWorkload(seed, 10)
	w.Stmts = append(w.Stmts,
		`INSERT INTO HIST VALUES (900009, 'base-upd')`,
		`INSERT INTO HIST VALUES (900008, 'base-del')`)
	w.Txn = []string{
		`INSERT INTO HIST VALUES (900001, 'txn-a')`,
		`INSERT INTO HIST VALUES (900002, 'txn-b')`,
		`INSERT INTO EMP VALUES (900003, 'TXN', 7)`,
		`UPDATE x IN HIST SET NOTE = 'txn-upd' WHERE x.ID = 900009`,
		`UPDATE x IN HIST SET NOTE = 'txn-c' WHERE x.ID = 900001`,
		`DELETE x FROM x IN HIST WHERE x.ID = 900008`,
	}
	return w
}

// deptTables are the complex tables, one per storage layout.
var deptTables = []string{"DEPT1", "DEPT2", "DEPT3"}

const deptBody = `(DNO INT, BUDGET INT,
  PROJECTS TABLE OF (PNO INT, MEMBERS TABLE OF (MNO INT, ROLE STRING)),
  EQUIP LIST OF (QU INT, ETYPE STRING))`

// NewWorkload generates a workload of n DML statements from the seed.
func NewWorkload(seed int64, n int) *Workload {
	g := &wgen{
		rng:      rand.New(rand.NewSource(seed ^ 0x5DEECE66D)),
		nextID:   1,
		projects: make(map[string]map[int][]int),
		depts:    make(map[string][]int),
	}
	w := &Workload{
		Seed: seed,
		Setup: []string{
			`CREATE TABLE EMP (ENO INT, NAME STRING, SAL INT)`,
			`CREATE TABLE DEPT1 ` + deptBody + ` VERSIONED LAYOUT SS1`,
			`CREATE TABLE DEPT2 ` + deptBody + ` LAYOUT SS2`,
			`CREATE TABLE DEPT3 ` + deptBody + ` LAYOUT SS3`,
			`CREATE TABLE HIST (ID INT, NOTE STRING) VERSIONED`,
			`CREATE INDEX EMP_ENO ON EMP (ENO)`,
			`CREATE INDEX DEPT3_PNO ON DEPT3 (PROJECTS.PNO) USING HIERARCHICAL`,
		},
	}
	for i := 0; i < n; i++ {
		w.Stmts = append(w.Stmts, g.next())
	}
	return w
}

// wgen tracks enough of the logical state to keep generated
// statements referencing live rows. Statements that end up matching
// nothing (e.g. after a crash-free full run deletes a row twice) are
// still valid SQL and still deterministic.
type wgen struct {
	rng      *rand.Rand
	nextID   int
	emps     []int
	hist     []int
	depts    map[string][]int         // live DNOs per complex table
	projects map[string]map[int][]int // live PNOs per table and DNO
}

func (g *wgen) id() int { g.nextID++; return g.nextID - 1 }

func (g *wgen) pick(s []int) int { return s[g.rng.Intn(len(s))] }

func remove(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func (g *wgen) deptTable() string { return deptTables[g.rng.Intn(len(deptTables))] }

func (g *wgen) next() string {
	for {
		switch k := g.rng.Intn(100); {
		case k < 16: // flat insert
			eno := g.id()
			g.emps = append(g.emps, eno)
			return fmt.Sprintf(`INSERT INTO EMP VALUES (%d, 'N%d', %d)`, eno, eno, 1000+g.rng.Intn(9000))
		case k < 24: // flat update
			if len(g.emps) == 0 {
				continue
			}
			return fmt.Sprintf(`UPDATE e IN EMP SET SAL = %d WHERE e.ENO = %d`,
				1000+g.rng.Intn(9000), g.pick(g.emps))
		case k < 30: // flat delete
			if len(g.emps) == 0 {
				continue
			}
			eno := g.pick(g.emps)
			g.emps = remove(g.emps, eno)
			return fmt.Sprintf(`DELETE e FROM e IN EMP WHERE e.ENO = %d`, eno)
		case k < 44: // complex-object insert
			t := g.deptTable()
			dno := g.id()
			g.depts[t] = append(g.depts[t], dno)
			if g.projects[t] == nil {
				g.projects[t] = make(map[int][]int)
			}
			var projLit, equipLit string
			if g.rng.Intn(4) == 0 {
				projLit, equipLit = `{}`, `<>`
			} else {
				pno := g.id()
				g.projects[t][dno] = []int{pno}
				projLit = fmt.Sprintf(`{(%d, {(%d, 'R%d')})}`, pno, g.id(), g.rng.Intn(9))
				equipLit = fmt.Sprintf(`<(%d, 'E%d'), (%d, 'E%d')>`,
					1+g.rng.Intn(9), g.rng.Intn(9), 1+g.rng.Intn(9), g.rng.Intn(9))
			}
			return fmt.Sprintf(`INSERT INTO %s VALUES (%d, %d, %s, %s)`,
				t, dno, 10000+g.rng.Intn(90000), projLit, equipLit)
		case k < 52: // complex-object atomic update
			t := g.deptTable()
			if len(g.depts[t]) == 0 {
				continue
			}
			return fmt.Sprintf(`UPDATE x IN %s SET BUDGET = %d WHERE x.DNO = %d`,
				t, 10000+g.rng.Intn(90000), g.pick(g.depts[t]))
		case k < 58: // complex-object delete
			t := g.deptTable()
			if len(g.depts[t]) == 0 {
				continue
			}
			dno := g.pick(g.depts[t])
			g.depts[t] = remove(g.depts[t], dno)
			delete(g.projects[t], dno)
			return fmt.Sprintf(`DELETE x FROM x IN %s WHERE x.DNO = %d`, t, dno)
		case k < 70: // subtable member insert (unordered PROJECTS)
			t := g.deptTable()
			if len(g.depts[t]) == 0 {
				continue
			}
			dno := g.pick(g.depts[t])
			pno := g.id()
			g.projects[t][dno] = append(g.projects[t][dno], pno)
			return fmt.Sprintf(`INSERT INTO x.PROJECTS FROM x IN %s WHERE x.DNO = %d VALUES (%d, {(%d, 'R%d')})`,
				t, dno, pno, g.id(), g.rng.Intn(9))
		case k < 76: // subtable member insert (ordered EQUIP)
			t := g.deptTable()
			if len(g.depts[t]) == 0 {
				continue
			}
			return fmt.Sprintf(`INSERT INTO x.EQUIP FROM x IN %s WHERE x.DNO = %d VALUES (%d, 'E%d')`,
				t, g.pick(g.depts[t]), 1+g.rng.Intn(9), g.rng.Intn(9))
		case k < 80: // subtable member delete
			t := g.deptTable()
			var dnos []int
			for dno, pnos := range g.projects[t] {
				if len(pnos) > 0 {
					dnos = append(dnos, dno)
				}
			}
			if len(dnos) == 0 {
				continue
			}
			// Map iteration order is irrelevant: the choice below keys
			// on the PNO value, which is unique.
			best := 0
			for _, dno := range dnos {
				for _, pno := range g.projects[t][dno] {
					if pno > best {
						best = pno
					}
				}
			}
			for _, dno := range dnos {
				g.projects[t][dno] = remove(g.projects[t][dno], best)
			}
			return fmt.Sprintf(`DELETE p FROM x IN %s, p IN x.PROJECTS WHERE p.PNO = %d`, t, best)
		case k < 90: // versioned insert, occasionally overflow-length
			id := g.id()
			g.hist = append(g.hist, id)
			note := fmt.Sprintf("note-%d", id)
			if g.rng.Intn(5) == 0 {
				// ~6000 chars: longer than a page's max record, forcing
				// an overflow chunk chain through the WAL.
				note = strings.Repeat(note+".", 6000/(len(note)+1))
			}
			return fmt.Sprintf(`INSERT INTO HIST VALUES (%d, '%s')`, id, note)
		default: // versioned update (grows ASOF history)
			if len(g.hist) == 0 {
				continue
			}
			id := g.pick(g.hist)
			return fmt.Sprintf(`UPDATE h IN HIST SET NOTE = 'rev-%d-%d' WHERE h.ID = %d`, id, g.id(), id)
		}
	}
}
