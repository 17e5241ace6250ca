package trace

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// The one archive layout (§3.5: "traces are shared as a zip file which
// the recipient Digibox can parse and replay"). A live testbed's trace
// and a recorded run share it; only a recorded run carries the
// scenario that re-executes it.
const (
	archiveTraceFile    = "trace.jsonl"
	archiveMetaFile     = "meta.txt"
	archiveScenarioFile = "scenario.yaml"
)

// Archive is one parsed trace archive.
type Archive struct {
	Records []Record
	// Digest is the conformance digest of the normalized records
	// (Digest(Normalize(Records))), checked against meta.txt on read.
	Digest string
	// Scenario is the recorded run's scenario.yaml; nil for a live
	// testbed's trace.
	Scenario []byte
}

// WriteArchive packages records as a shareable zip. meta.txt makes the
// archive self-describing: total record count (kept first for
// compatibility), start and end (start plus the last record's
// offset), per-kind counts, and the digest the reader checks. A
// non-nil scenario is stored next to the trace.
func WriteArchive(w io.Writer, start time.Time, recs []Record, scenario []byte) error {
	digest, err := Digest(Normalize(recs))
	if err != nil {
		return err
	}
	end := start
	if len(recs) > 0 {
		end = start.Add(recs[len(recs)-1].TS)
	}
	kinds := map[Kind]int{}
	for i := range recs {
		kinds[recs[i].Kind]++
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)

	zw := zip.NewWriter(w)
	meta, err := zw.Create(archiveMetaFile)
	if err != nil {
		return err
	}
	fmt.Fprintf(meta, "digibox-trace v1\nrecords: %d\n", len(recs))
	fmt.Fprintf(meta, "start: %s\nend: %s\n",
		start.UTC().Format(time.RFC3339Nano), end.UTC().Format(time.RFC3339Nano))
	for _, k := range names {
		fmt.Fprintf(meta, "kind %s: %d\n", k, kinds[Kind(k)])
	}
	fmt.Fprintf(meta, "digest: %s\n", digest)
	tf, err := zw.Create(archiveTraceFile)
	if err != nil {
		return err
	}
	if err := WriteJSONL(tf, recs); err != nil {
		return err
	}
	if scenario != nil {
		sf, err := zw.Create(archiveScenarioFile)
		if err != nil {
			return err
		}
		if _, err := sf.Write(scenario); err != nil {
			return err
		}
	}
	return zw.Close()
}

// WriteArchive packages the log as a live trace archive (no scenario).
func (l *Log) WriteArchive(w io.Writer) error {
	return WriteArchive(w, l.start, l.Records(), nil)
}

// SaveArchive writes the log's archive to a file path.
func (l *Log) SaveArchive(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := l.WriteArchive(f); err != nil {
		return err
	}
	return f.Sync()
}

// ArchiveBytes returns the log's archive as a byte slice (dboxd's
// trace download and push).
func (l *Log) ArchiveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseArchiveBytes parses an archive held in memory. It refuses an
// archive whose trace.jsonl no longer matches meta.txt: a different
// record count, or a digest recomputed from the records that differs
// from the stored one (an edited, dropped or reordered record).
func ParseArchiveBytes(data []byte) (*Archive, error) {
	zr, err := zip.NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace archive: %w", err)
	}
	files := map[string][]byte{}
	for _, f := range zr.File {
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		files[f.Name], err = io.ReadAll(rc)
		rc.Close()
		if err != nil {
			return nil, err
		}
	}
	body, ok := files[archiveTraceFile]
	if !ok {
		return nil, fmt.Errorf("trace: archive has no %s", archiveTraceFile)
	}
	recs, err := ReadJSONL(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	ar := &Archive{Records: recs, Scenario: files[archiveScenarioFile]}
	records := -1
	for _, line := range strings.Split(string(files[archiveMetaFile]), "\n") {
		if v, ok := strings.CutPrefix(line, "records: "); ok {
			records, _ = strconv.Atoi(v)
		}
		if v, ok := strings.CutPrefix(line, "digest: "); ok {
			ar.Digest = v
		}
	}
	if ar.Digest == "" {
		return nil, fmt.Errorf("trace: archive has no digest in %s", archiveMetaFile)
	}
	if records != len(ar.Records) {
		return nil, fmt.Errorf("trace: %s holds %d records, %s says %d", archiveTraceFile, len(ar.Records), archiveMetaFile, records)
	}
	got, err := Digest(Normalize(ar.Records))
	if err != nil {
		return nil, err
	}
	if got != ar.Digest {
		return nil, fmt.Errorf("trace: digest mismatch: %s says %s, its records hash to %s", archiveMetaFile, ar.Digest, got)
	}
	return ar, nil
}

// LoadArchive reads an archive from a file path.
func LoadArchive(path string) (*Archive, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseArchiveBytes(data)
}
