package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"time"

	"github.com/urbandata/datapolygamy/internal/store"
)

// runInspect implements `polygamy inspect [-json] <snapshot>`: it reads
// only the container header and manifest — no section payload is buffered
// and no corpus needs to be registered — and reports what the snapshot
// holds and how to verify it.
func runInspect(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("polygamy inspect", flag.ContinueOnError)
	jsonOut := fs.Bool("json", false, "write the report as JSON")
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "usage: polygamy inspect [-json] <snapshot>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("inspect takes exactly one snapshot path, got %d arguments", fs.NArg())
	}
	path := fs.Arg(0)
	m, err := store.ReadManifest(path)
	if err != nil {
		return err
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(inspectReport(path, m))
	}
	printInspect(stdout, path, m)
	return nil
}

// inspectSection is the JSON form of one manifest section entry.
type inspectSection struct {
	Name   string `json:"name"`
	Length int64  `json:"length"`
	CRC32C string `json:"crc32c"`
}

// inspectSnapshot is the JSON report of `polygamy inspect -json`.
type inspectSnapshot struct {
	Path             string           `json:"path"`
	ContainerVersion int              `json:"container_version"`
	Seed             int64            `json:"seed"`
	MinTS            int64            `json:"min_ts"`
	MaxTS            int64            `json:"max_ts"`
	Datasets         []string         `json:"datasets"`
	ClauseSig        string           `json:"clause_sig,omitempty"`
	Sections         []inspectSection `json:"sections"`
}

func inspectReport(path string, m store.Manifest) inspectSnapshot {
	rep := inspectSnapshot{
		Path:             path,
		ContainerVersion: m.FormatVersion,
		Seed:             m.Fingerprint.Seed,
		MinTS:            m.Fingerprint.MinTS,
		MaxTS:            m.Fingerprint.MaxTS,
		Datasets:         m.Fingerprint.Datasets,
		ClauseSig:        m.ClauseSig,
	}
	for _, s := range m.Sections {
		rep.Sections = append(rep.Sections, inspectSection{
			Name:   s.Name,
			Length: s.Length,
			CRC32C: fmt.Sprintf("%08x", s.CRC),
		})
	}
	return rep
}

func printInspect(w io.Writer, path string, m store.Manifest) {
	rep := inspectReport(path, m)
	fmt.Fprintf(w, "snapshot %s\n", rep.Path)
	fmt.Fprintf(w, "  container version: %d\n", rep.ContainerVersion)
	fmt.Fprintf(w, "  corpus: seed %d, %d data sets, time range [%s, %s]\n",
		rep.Seed, len(rep.Datasets),
		time.Unix(rep.MinTS, 0).UTC().Format(time.RFC3339),
		time.Unix(rep.MaxTS, 0).UTC().Format(time.RFC3339))
	for i, ds := range rep.Datasets {
		fmt.Fprintf(w, "    %d. %s\n", i+1, ds)
	}
	if rep.ClauseSig != "" {
		fmt.Fprintf(w, "  graph clause: %s\n", rep.ClauseSig)
	}
	fmt.Fprintf(w, "  sections:\n")
	for _, s := range rep.Sections {
		fmt.Fprintf(w, "    %-8s %10d bytes  crc32c %s\n", s.Name, s.Length, s.CRC32C)
	}
}
