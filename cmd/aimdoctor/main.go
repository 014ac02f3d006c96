// Command aimdoctor audits and repairs an AIM-II database directory.
//
// Usage:
//
//	aimdoctor -dir DB scan        # quick structural audit (pages, objects)
//	aimdoctor -dir DB verify      # full audit incl. index cross-checks
//	aimdoctor -dir DB repair      # repair: WAL redo, salvage, amputate
//	aimdoctor -dir DB checkpoint  # fuzzy checkpoint + retire dead WAL segments
//	aimdoctor -dir DB -json verify
//
// The exit status is 0 when the database is healthy (after repair, in
// repair mode), 1 when problems remain, 2 on usage or I/O errors and
// on a directory that holds no database, which is left as it is.
// With -json the machine-readable report is written to stdout.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/doctor"
	"repro/internal/engine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command with its arguments and output streams; it returns
// the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("aimdoctor", flag.ContinueOnError)
	fl.SetOutput(stderr)
	dir := fl.String("dir", "", "database directory (required)")
	jsonOut := fl.Bool("json", false, "emit the machine-readable JSON report")
	fl.Usage = func() {
		fmt.Fprintln(stderr, "usage: aimdoctor -dir DB [-json] {scan|verify|repair|checkpoint}")
		fl.PrintDefaults()
	}
	if err := fl.Parse(args); errors.Is(err, flag.ErrHelp) {
		return 0
	} else if err != nil {
		return 2
	}
	mode := fl.Arg(0)
	if *dir == "" || fl.NArg() != 1 {
		fl.Usage()
		return 2
	}
	opts := engine.Options{Dir: *dir}

	var rep *doctor.Report
	var err error
	switch mode {
	case "scan":
		rep, err = doctor.Scan(opts)
	case "verify":
		rep, err = doctor.Verify(opts)
	case "repair":
		rep, err = doctor.Repair(opts)
	case "checkpoint":
		err = checkpoint(opts, *jsonOut, stdout)
	default:
		fl.Usage()
		return 2
	}
	if err == nil && rep != nil {
		if *jsonOut {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			err = enc.Encode(rep)
		} else {
			fmt.Fprint(stdout, doctor.FormatText(rep))
		}
	}
	switch {
	case err != nil:
		fmt.Fprintln(stderr, "aimdoctor:", err)
		return 2
	case rep != nil && !rep.Healthy:
		return 1
	}
	return 0
}

// checkpoint opens the database (running recovery if needed), writes
// a fuzzy checkpoint — flushing every dirty page and logging the
// durable horizon — and retires the WAL segments recovery can no
// longer need. It prints the log's shape before and after, so an
// operator can see how much replay work the checkpoint saved.
func checkpoint(opts engine.Options, jsonOut bool, w io.Writer) error {
	db, err := doctor.Open(opts)
	if err != nil {
		return err
	}
	defer db.Close()
	before := db.WALStats()
	if err := db.WALCheckpoint(); err != nil {
		return err
	}
	after := db.WALStats()
	if jsonOut {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Before engine.WALStats `json:"before"`
			After  engine.WALStats `json:"after"`
		}{before, after})
	}
	fmt.Fprintf(w, "checkpoint written at LSN %d\n", after.CheckpointLSN)
	fmt.Fprintf(w, "replay tail: %d bytes -> %d bytes\n", before.End-before.TailStart, after.End-after.TailStart)
	fmt.Fprintf(w, "retained segments: %d -> %d\n", before.Segments, after.Segments)
	return nil
}
