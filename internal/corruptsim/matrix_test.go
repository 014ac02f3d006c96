package corruptsim

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/crashsim"
	"repro/internal/dberr"
	"repro/internal/doctor"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/segment"
	"repro/internal/simkit"
)

// The corruption matrix: ≥200 seeded fault points across four fault
// kinds and several timings, all asserting the same contract — a
// fault may cost availability (typed errors) or reported data loss,
// but NEVER a silently wrong answer. With a WAL, recovery or
// aimdoctor must restore full oracle equality.

const matrixSeed = 0xA1D2

func pointsPerCell(t *testing.T) int {
	if testing.Short() {
		return 3
	}
	return 25
}

// replay executes the statement groups in order on a fresh in-memory
// engine: the oracle a corrupted database is judged against.
func replay(stmts ...[]string) (*engine.DB, error) {
	ref, err := engine.Open(engine.Options{})
	if err != nil {
		return nil, err
	}
	for _, group := range stmts {
		for _, stmt := range group {
			if _, err := ref.Exec(stmt); err != nil {
				ref.Close()
				return nil, fmt.Errorf("oracle replay failed: %w\n%s", err, stmt)
			}
		}
	}
	return ref, nil
}

// buildTemplate materializes the seeded workload into dir and closes
// the database, leaving durable files to corrupt.
func buildTemplate(t *testing.T, dir string, w *crashsim.Workload, disableWAL bool) {
	t.Helper()
	db, err := engine.Open(engine.Options{Dir: dir, DisableWAL: disableWAL})
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range append(append([]string{}, w.Setup...), w.Stmts...) {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("workload: %v\n%s", err, stmt)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// typedFailure reports whether err is a loud, classified corruption
// outcome (the only acceptable kind of failure).
func typedFailure(err error) bool {
	return errors.Is(err, engine.ErrQuarantined) || dberr.IsCorrupt(err)
}

// checkNoSilentWrongAnswers scans every table: each scan must either
// fail with a typed corruption error (loud, contained) or return
// exactly the oracle's rows. Returns how many tables failed loudly.
func checkNoSilentWrongAnswers(t *testing.T, ctx string, db, orc *engine.DB) int {
	t.Helper()
	loud := 0
	for _, wt := range orc.Catalog().Tables() {
		gt, ok := db.Catalog().Table(wt.Name)
		if !ok {
			t.Fatalf("%s: table %s missing from catalog", ctx, wt.Name)
		}
		got, err := crashsim.TableRows(db, gt, 0)
		if err != nil {
			if !typedFailure(err) {
				t.Fatalf("%s: scan %s failed with untyped error: %v", ctx, wt.Name, err)
			}
			loud++
			continue
		}
		want, err := crashsim.TableRows(orc, wt, 0)
		if err != nil {
			t.Fatalf("oracle scan %s: %v", wt.Name, err)
		}
		if !model.TableEqual(got, want) {
			t.Fatalf("%s: SILENT WRONG ANSWER on %s: got %d rows, oracle %d",
				ctx, wt.Name, len(got.Tuples), len(want.Tuples))
		}
	}
	return loud
}

// multisetSubset reports whether every tuple of got matches a
// distinct tuple of want.
func multisetSubset(got, want *model.Table) bool {
	used := make([]bool, len(want.Tuples))
	for _, g := range got.Tuples {
		found := false
		for i, w := range want.Tuples {
			if !used[i] && model.TupleEqual(g, w) {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func TestCorruptionMatrix(t *testing.T) {
	per := pointsPerCell(t)
	w := crashsim.NewWorkload(1, 50)
	orc, err := replay(w.Setup, w.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()

	walTpl := t.TempDir()
	buildTemplate(t, walTpl, w, false)
	rawTpl := t.TempDir()
	buildTemplate(t, rawTpl, w, true)

	points := 0

	// Cell A — at-rest rot, WAL present: recovery at open must rebuild
	// the damaged pages exactly; the reopened database equals the
	// oracle with no repair tooling involved.
	t.Run("AtRestWithWAL", func(t *testing.T) {
		for _, kind := range []simkit.PageFaultKind{simkit.BitFlip, simkit.ZeroPage} {
			faults, err := Plan(matrixSeed+int64(kind), walTpl, []simkit.PageFaultKind{kind}, per)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				dir := copyDir(t, walTpl)
				if err := Inject(dir, f); err != nil {
					t.Fatalf("%v: %v", f, err)
				}
				db, err := engine.Open(engine.Options{Dir: dir})
				if err != nil {
					t.Fatalf("%v: open after rot: %v", f, err)
				}
				if msg := crashsim.CompareState(db, orc); msg != "" {
					t.Fatalf("%v: recovery did not heal: %s", f, msg)
				}
				db.Close()
				points++
			}
		}
	})

	// Cell B — at-rest rot, no WAL: the rot is permanent. Reads must
	// fail loudly or answer exactly; aimdoctor repair must converge,
	// and any missing row afterwards must be a reported loss.
	t.Run("AtRestNoWAL", func(t *testing.T) {
		for _, kind := range []simkit.PageFaultKind{simkit.BitFlip, simkit.ZeroPage} {
			faults, err := Plan(matrixSeed+int64(kind), rawTpl, []simkit.PageFaultKind{kind}, per)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				dir := copyDir(t, rawTpl)
				if err := Inject(dir, f); err != nil {
					t.Fatalf("%v: %v", f, err)
				}
				opts := engine.Options{Dir: dir, DisableWAL: true}
				db, err := engine.Open(opts)
				if err != nil {
					// Catalog/meta rot without a WAL: opening may fail, but
					// it must fail as classified corruption, never garbage.
					if !typedFailure(err) {
						t.Fatalf("%v: open failed untyped: %v", f, err)
					}
					points++
					continue
				}
				checkNoSilentWrongAnswers(t, f.String(), db, orc)
				db.Close()

				rep, err := doctor.Repair(opts)
				if err != nil {
					t.Fatalf("%v: doctor: %v", f, err)
				}
				if !rep.Healthy {
					// Unrepairable without a WAL is acceptable — but only
					// as a reported verdict, which Healthy=false is.
					points++
					continue
				}
				db, err = engine.Open(opts)
				if err != nil {
					t.Fatalf("%v: reopen after repair: %v", f, err)
				}
				lost := false
				for _, wt := range orc.Catalog().Tables() {
					gt, _ := db.Catalog().Table(wt.Name)
					got, err := crashsim.TableRows(db, gt, 0)
					if err != nil {
						t.Fatalf("%v: post-repair scan %s: %v", f, wt.Name, err)
					}
					want, _ := crashsim.TableRows(orc, wt, 0)
					if !multisetSubset(got, want) {
						t.Fatalf("%v: post-repair %s has rows the oracle never had", f, wt.Name)
					}
					if len(got.Tuples) != len(want.Tuples) {
						lost = true
					}
				}
				if lost && len(rep.Actions) == 0 {
					t.Fatalf("%v: rows lost but repair reported no actions", f)
				}
				db.Close()
				points++
			}
		}
	})

	// Cell C — write-path faults (lost and misdirected writes) under a
	// live engine with WAL: every durable page is armed, the workload
	// runs, and recovery at the next open must still reach exact
	// oracle equality.
	t.Run("WritePathWithWAL", func(t *testing.T) {
		kinds := []simkit.PageFaultKind{simkit.LostWrite, simkit.MisdirectedWrite}
		fired := make(map[simkit.PageFaultKind]int)
		for _, kind := range kinds {
			for i := 0; i < per; i++ {
				dir := copyDir(t, walTpl)
				extra := crashsim.NewWorkload(matrixSeed+int64(kind)*1000+int64(i), 12)
				faults, err := WritePath(matrixSeed+int64(i), dir, kind)
				if err != nil {
					t.Fatal(err)
				}
				in := simkit.NewInjector(0, -1)
				for _, f := range faults {
					in.ArmPage(f)
				}
				openStore := func(id segment.ID) (segment.Store, error) {
					st, err := segment.OpenFileStore(segPath(dir, id))
					if err != nil {
						return nil, err
					}
					return in.WrapStore(id, st), nil
				}
				db, err := engine.Open(engine.Options{Dir: dir, OpenStore: openStore})
				if err != nil {
					t.Fatalf("point %v/%d: open: %v", kind, i, err)
				}
				for _, stmt := range extra.Stmts {
					if _, err := db.Exec(stmt); err != nil {
						t.Fatalf("point %v/%d: %v\n%s", kind, i, err, stmt)
					}
				}
				if err := db.Close(); err != nil {
					t.Fatalf("point %v/%d: close: %v", kind, i, err)
				}
				n := len(in.Fired())
				fired[kind] += n

				porc, err := replay(w.Setup, w.Stmts, extra.Stmts)
				if err != nil {
					t.Fatal(err)
				}
				db, err = engine.Open(engine.Options{Dir: dir})
				if err != nil {
					t.Fatalf("point %v/%d: reopen: %v", kind, i, err)
				}
				if msg := crashsim.CompareState(db, porc); msg != "" {
					t.Fatalf("point %v/%d: recovery did not mask %d %v faults: %s", kind, i, n, kind, msg)
				}
				db.Close()
				porc.Close()
				points++
			}
		}
		for _, kind := range kinds {
			if fired[kind] == 0 {
				t.Fatalf("no %v fault ever fired; the cell is vacuous for it", kind)
			}
		}
		t.Logf("write-path faults fired: %v", fired)
	})

	// Cell D — rot under a live engine (after its open): reads must
	// quarantine the damaged objects while healthy tables keep
	// serving oracle-identical answers; aimdoctor repair (whose open
	// replays the WAL) must then restore full equality.
	t.Run("OnlineRotWithWAL", func(t *testing.T) {
		for _, kind := range []simkit.PageFaultKind{simkit.BitFlip, simkit.ZeroPage} {
			faults, err := Plan(matrixSeed+77+int64(kind), walTpl, []simkit.PageFaultKind{kind}, per)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range faults {
				dir := copyDir(t, walTpl)
				db, err := engine.Open(engine.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if err := Inject(dir, f); err != nil {
					t.Fatalf("%v: %v", f, err)
				}
				// Force the engine to re-read the rotten durable images.
				db.Pool().InvalidateAll()
				checkNoSilentWrongAnswers(t, "online "+f.String(), db, orc)
				db.Close()

				rep, err := doctor.Repair(engine.Options{Dir: dir})
				if err != nil {
					t.Fatalf("%v: doctor: %v", f, err)
				}
				if !rep.Healthy {
					t.Fatalf("%v: WAL-recoverable rot not repaired: %s", f, doctor.FormatText(rep))
				}
				db, err = engine.Open(engine.Options{Dir: dir})
				if err != nil {
					t.Fatal(err)
				}
				if msg := crashsim.CompareState(db, orc); msg != "" {
					t.Fatalf("%v: post-repair state diverges: %s", f, msg)
				}
				db.Close()
				points++
			}
		}
	})

	if !testing.Short() && points < 200 {
		t.Fatalf("matrix covered only %d fault points, want >= 200", points)
	}
	t.Logf("matrix covered %d fault points", points)
}

// A quarantined table must not block its healthy neighbours: this is
// the containment contract at matrix scale, checked explicitly on one
// deterministic fault point.
func TestCorruptionContainment(t *testing.T) {
	w := crashsim.NewWorkload(2, 40)
	orc, err := replay(w.Setup, w.Stmts)
	if err != nil {
		t.Fatal(err)
	}
	defer orc.Close()
	tpl := t.TempDir()
	buildTemplate(t, tpl, w, false)

	// Rot one page of EMP's segment while the engine is live.
	dir := copyDir(t, tpl)
	db, err := engine.Open(engine.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	emp, _ := db.Catalog().Table("EMP")
	if err := Inject(dir, simkit.PageFault{Seg: emp.Seg, Page: 1, Kind: simkit.BitFlip, Off: 300}); err != nil {
		t.Fatal(err)
	}
	db.Pool().InvalidateAll()

	if _, err := crashsim.TableRows(db, emp, 0); !typedFailure(err) {
		t.Fatalf("scan of rotten EMP: want typed corruption failure, got %v", err)
	}
	if len(db.Quarantined()) == 0 {
		t.Fatal("nothing quarantined after corrupt read")
	}
	for _, name := range []string{"DEPT1", "DEPT2", "DEPT3", "HIST"} {
		gt, _ := db.Catalog().Table(name)
		wt, _ := orc.Catalog().Table(name)
		got, err := crashsim.TableRows(db, gt, 0)
		if err != nil {
			t.Fatalf("healthy table %s failed during quarantine: %v", name, err)
		}
		want, _ := crashsim.TableRows(orc, wt, 0)
		if !model.TableEqual(got, want) {
			t.Fatalf("healthy table %s diverged during quarantine", name)
		}
	}
}
