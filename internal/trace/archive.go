package trace

import (
	"archive/zip"
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// Archive file layout inside the shared zip (§3.5: "traces are shared
// as a zip file which the recipient Digibox can parse and replay").
const (
	archiveTraceFile = "trace.jsonl"
	archiveMetaFile  = "meta.txt"
)

// WriteArchive packages the log as a shareable zip stream. meta.txt
// makes the archive self-describing: total record count (kept first
// for compatibility), wall-clock start/end, and per-kind counts.
func (l *Log) WriteArchive(w io.Writer) error {
	zw := zip.NewWriter(w)
	meta, err := zw.Create(archiveMetaFile)
	if err != nil {
		return err
	}
	start, end, kinds := l.Bounds()
	fmt.Fprintf(meta, "digibox-trace v1\nrecords: %d\n", l.Len())
	fmt.Fprintf(meta, "start: %s\nend: %s\n",
		start.UTC().Format(time.RFC3339Nano), end.UTC().Format(time.RFC3339Nano))
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, string(k))
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(meta, "kind %s: %d\n", k, kinds[Kind(k)])
	}
	tf, err := zw.Create(archiveTraceFile)
	if err != nil {
		return err
	}
	if err := l.WriteJSONL(tf); err != nil {
		return err
	}
	return zw.Close()
}

// SaveArchive writes the zip to a file path.
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

// ReadArchive extracts the records from a trace zip stream.
func ReadArchive(r io.ReaderAt, size int64) ([]Record, error) {
	zr, err := zip.NewReader(r, size)
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace archive: %w", err)
	}
	for _, f := range zr.File {
		if f.Name != archiveTraceFile {
			continue
		}
		rc, err := f.Open()
		if err != nil {
			return nil, err
		}
		defer rc.Close()
		return ReadJSONL(rc)
	}
	return nil, fmt.Errorf("trace: archive has no %s", archiveTraceFile)
}

// LoadArchive reads a trace zip from a file path.
//
//dbox:allow deadcode -- core's share tests read saved traces with it
func LoadArchive(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return ReadArchive(f, st.Size())
}

// ArchiveBytes is a convenience returning the zip as a byte slice
// (used by dboxd's trace download endpoint).
func (l *Log) ArchiveBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := l.WriteArchive(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// ParseArchiveBytes parses a zip held in memory.
func ParseArchiveBytes(data []byte) ([]Record, error) {
	return ReadArchive(bytes.NewReader(data), int64(len(data)))
}
